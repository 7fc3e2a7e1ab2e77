// Unit tests for the bench row format (bench/common.cpp): every
// controller_stats counter reaches the JSON under its field-table key.
#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <string>
#include <type_traits>

#include "common.h"

namespace horam::bench {
namespace {

TEST(BenchJson, EveryTableKeyAppearsOnceWithItsValue) {
  system_run run;
  run.name = "row";
  int row = 0;
  controller_stats::for_each_field([&](const char*, auto member) {
    using value = std::remove_reference_t<decltype(run.stats.*member)>;
    run.stats.*member = static_cast<value>(1000 + ++row);
  });

  // Key -> raw value text, over the whole row: a table key clashing
  // with a derived column would show up as a count of two.
  const std::string json = json_fields(run);
  const std::regex field(R"re("([a-z0-9_]+)": ([^,]*))re");
  std::map<std::string, int> count;
  std::map<std::string, std::string> text;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), field);
       it != std::sregex_iterator(); ++it) {
    ++count[(*it)[1]];
    text[(*it)[1]] = (*it)[2];
  }
  for (const auto& [key, n] : count) {
    EXPECT_EQ(n, 1) << key;
  }

  row = 0;
  controller_stats::for_each_field([&](const char* key, auto) {
    EXPECT_EQ(text[key], std::to_string(1000 + ++row)) << key;
  });
}

}  // namespace
}  // namespace horam::bench
