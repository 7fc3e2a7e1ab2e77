// Equivalence tests for the lane-parallel crypto kernels: every ChaCha20
// and SipHash kernel width this build contains is checked against the
// scalar chacha20_block / siphash24 reference on random job lists and
// one-nonce runs, and the RFC 8439 and SipHash reference vectors are
// re-run through the batch entry points. A width the host CPU lacks is
// skipped with a message naming the missing ISA, so a CI log shows
// which widths ran.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/detail/kernels.h"
#include "crypto/siphash.h"
#include "test_support.h"
#include "util/rng.h"

namespace horam::crypto {
namespace detail {

// Names the width in gtest's parameter printout.
void PrintTo(kernel_isa isa, std::ostream* os) { *os << kernel_name(isa); }

}  // namespace detail
namespace {

using detail::kernel_isa;

class KernelWidths : public ::testing::TestWithParam<kernel_isa> {
 protected:
  void SetUp() override {
    if (!detail::host_runs(GetParam())) {
      GTEST_SKIP() << "host CPU lacks " << detail::kernel_name(GetParam())
                   << "; its kernels are not exercised here";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(
    Isa, KernelWidths, ::testing::ValuesIn(detail::all_kernel_isas),
    [](const ::testing::TestParamInfo<kernel_isa>& info) {
      return std::string(detail::kernel_name(info.param));
    });

/// Job counts around a kernel of `lanes` lanes: one, a group short by
/// one, a whole group, one over, and three groups plus two.
std::vector<std::size_t> counts_around(std::size_t lanes) {
  std::vector<std::size_t> counts;
  for (const std::size_t n :
       {std::size_t{1}, lanes - 1, lanes, lanes + 1, 3 * lanes + 2}) {
    if (n > 0 && (counts.empty() || counts.back() != n)) {
      counts.push_back(n);
    }
  }
  return counts;
}

chacha_key random_key(util::pcg64& rng) {
  chacha_key key;
  for (auto& byte : key) {
    byte = static_cast<std::uint8_t>(rng.next_u64());
  }
  return key;
}

/// Random jobs, each over its own guarded 66-byte buffer (data starts
/// one byte in, so loads and stores are misaligned). Nonces repeat
/// across jobs now and then, and counters cluster at the 2^32 wrap.
struct job_list {
  std::vector<std::vector<std::uint8_t>> buffers;
  std::vector<chacha_job> jobs;

  job_list(util::pcg64& rng, std::size_t count) {
    buffers.resize(count);
    jobs.resize(count);
    chacha_nonce shared{};
    for (auto& byte : shared) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<std::uint8_t>& buffer = buffers[i];
      buffer.assign(66, 0xa5);
      const std::size_t len = 1 + rng.next_u64() % 64;
      for (std::size_t b = 0; b < len; ++b) {
        buffer[1 + b] = static_cast<std::uint8_t>(rng.next_u64());
      }
      chacha_job& job = jobs[i];
      if (rng.next_u64() % 3 == 0) {
        job.nonce = shared;
      } else {
        for (auto& byte : job.nonce) {
          byte = static_cast<std::uint8_t>(rng.next_u64());
        }
      }
      switch (rng.next_u64() % 3) {
        case 0:
          job.counter = static_cast<std::uint32_t>(rng.next_u64());
          break;
        case 1:  // the last counters before the wrap
          job.counter = 0xffffffffU - static_cast<std::uint32_t>(i % 3);
          break;
        default:  // and the first after it
          job.counter = static_cast<std::uint32_t>(i % 3);
          break;
      }
      job.data = buffer.data() + 1;
      job.len = len;
    }
  }

  /// The buffers as the scalar reference leaves them.
  std::vector<std::vector<std::uint8_t>> reference(
      const chacha_key& key) const {
    std::vector<std::vector<std::uint8_t>> expected = buffers;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::array<std::uint8_t, 64> block;
      chacha20_block(key, jobs[i].counter, jobs[i].nonce, block);
      for (std::size_t b = 0; b < jobs[i].len; ++b) {
        expected[i][1 + b] ^= block[b];
      }
    }
    return expected;
  }
};

TEST_P(KernelWidths, ChaChaJobsMatchTheBlockReference) {
  util::pcg64 rng(test::seed(0xc4a));
  const std::size_t lanes = detail::chacha_lanes(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    for (const std::size_t count : counts_around(lanes)) {
      const chacha_key key = random_key(rng);
      job_list list(rng, count);
      const auto expected = list.reference(key);
      detail::chacha20_xor_jobs_on(GetParam(), key, list.jobs);
      ASSERT_EQ(list.buffers, expected)
          << detail::kernel_name(GetParam()) << ", " << count << " jobs";
    }
  }
}

TEST_P(KernelWidths, ChaChaRunsMatchTheBlockReference) {
  util::pcg64 rng(test::seed(0x7c1));
  const std::size_t lanes = detail::chacha_lanes(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    for (const std::size_t blocks : counts_around(lanes)) {
      for (const std::size_t tail : {std::size_t{64}, std::size_t{1},
                                     std::size_t{37}}) {
        const chacha_key key = random_key(rng);
        chacha_nonce nonce;
        for (auto& byte : nonce) {
          byte = static_cast<std::uint8_t>(rng.next_u64());
        }
        // Every third run starts just before the 2^32 counter wrap.
        const std::uint32_t counter =
            trial % 3 == 0
                ? 0xffffffffU - static_cast<std::uint32_t>(blocks / 2)
                : static_cast<std::uint32_t>(rng.next_u64());
        // Data one byte into a guarded buffer: misaligned loads.
        const std::size_t size = 64 * (blocks - 1) + tail;
        std::vector<std::uint8_t> buffer(size + 2, 0xa5);
        for (std::size_t b = 0; b < size; ++b) {
          buffer[1 + b] = static_cast<std::uint8_t>(rng.next_u64());
        }
        std::vector<std::uint8_t> expected = buffer;
        for (std::size_t j = 0; j < blocks; ++j) {
          std::array<std::uint8_t, 64> block;
          chacha20_block(key, counter + static_cast<std::uint32_t>(j), nonce,
                         block);
          for (std::size_t b = 0; b < 64 && 64 * j + b < size; ++b) {
            expected[1 + 64 * j + b] ^= block[b];
          }
        }
        detail::chacha20_xor_run_on(
            GetParam(), key, nonce, counter,
            std::span<std::uint8_t>(buffer).subspan(1, size));
        ASSERT_EQ(buffer, expected) << detail::kernel_name(GetParam())
                                    << ", " << blocks << " blocks, tail "
                                    << tail;
      }
    }
  }
}

/// RFC 8439 vectors through a job runner: the section 2.3.2 block as
/// `lanes` + 1 identical jobs over zeros (a whole group plus one), and
/// the section 2.4.2 message as two jobs (64 + 50 bytes).
template <typename Run>
void expect_rfc8439_vectors(std::size_t lanes, Run run) {
  chacha_key key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  const chacha_nonce block_nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                                    0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  constexpr std::uint8_t block_expected[64] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  std::vector<std::array<std::uint8_t, 64>> blocks(lanes + 1);
  std::vector<chacha_job> jobs;
  for (auto& block : blocks) {
    block.fill(0);
    jobs.push_back(chacha_job{block_nonce, 1, block.data(), 64});
  }
  run(key, std::span<const chacha_job>(jobs));
  for (const auto& block : blocks) {
    EXPECT_EQ(std::memcmp(block.data(), block_expected, 64), 0);
  }

  const chacha_nonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                              0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> data(plaintext.begin(), plaintext.end());
  ASSERT_EQ(data.size(), 114u);
  const chacha_job message[] = {
      chacha_job{nonce, 1, data.data(), 64},
      chacha_job{nonce, 2, data.data() + 64, 50}};
  run(key, std::span<const chacha_job>(message));
  constexpr std::uint8_t expected_head[16] = {
      0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80,
      0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d, 0x69, 0x81};
  constexpr std::uint8_t expected_tail[8] = {0x8e, 0xed, 0xf2, 0x78,
                                             0x5e, 0x42, 0x87, 0x4d};
  EXPECT_EQ(std::memcmp(data.data(), expected_head, 16), 0);
  EXPECT_EQ(std::memcmp(data.data() + data.size() - 8, expected_tail, 8), 0);
}

/// SipHash-2-4 vectors (Aumasson & Bernstein reference code: key =
/// 000102...0f, message = first n bytes of 00 01 02 ...) through a
/// batch runner, `count` lanes hashing the same message.
template <typename Run>
void expect_siphash_vectors(std::size_t count, Run run) {
  siphash_key key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL};
  std::vector<std::uint8_t> message(std::size(expected));
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i);
  }
  const std::vector<const std::uint8_t*> messages(count, message.data());
  for (std::size_t n = 0; n < std::size(expected); ++n) {
    std::vector<std::uint64_t> tags(count, 0);
    run(key, std::span<const std::uint8_t* const>(messages), n,
        std::span<std::uint64_t>(tags));
    EXPECT_EQ(tags, std::vector<std::uint64_t>(count, expected[n]))
        << "length " << n;
  }
}

TEST_P(KernelWidths, ChaChaRfc8439VectorsThroughTheBatch) {
  expect_rfc8439_vectors(
      detail::chacha_lanes(GetParam()),
      [&](const chacha_key& key, std::span<const chacha_job> jobs) {
        detail::chacha20_xor_jobs_on(GetParam(), key, jobs);
      });
}

TEST_P(KernelWidths, SipHashManyMatchesTheScalarReference) {
  util::pcg64 rng(test::seed(0x51f));
  const std::size_t lanes = detail::siphash_lanes(GetParam());
  for (const std::size_t length :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{1068}}) {
    for (const std::size_t count : counts_around(lanes)) {
      siphash_key key;
      for (auto& byte : key) {
        byte = static_cast<std::uint8_t>(rng.next_u64());
      }
      // Each message one byte into its own buffer: misaligned loads.
      std::vector<std::vector<std::uint8_t>> buffers(count);
      std::vector<const std::uint8_t*> messages;
      for (auto& buffer : buffers) {
        buffer.resize(length + 1);
        for (auto& byte : buffer) {
          byte = static_cast<std::uint8_t>(rng.next_u64());
        }
        messages.push_back(buffer.data() + 1);
      }
      std::vector<std::uint64_t> tags(count, 0);
      detail::siphash24_many_on(GetParam(), key, messages, length, tags);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(tags[i], siphash24(key, {messages[i], length}))
            << detail::kernel_name(GetParam()) << ", message " << i
            << " of " << count << ", length " << length;
      }
    }
  }
}

TEST_P(KernelWidths, SipHashReferenceVectorsThroughTheBatch) {
  expect_siphash_vectors(
      detail::siphash_lanes(GetParam()) + 1,
      [&](const siphash_key& key,
          std::span<const std::uint8_t* const> messages, std::size_t length,
          std::span<std::uint64_t> tags) {
        detail::siphash24_many_on(GetParam(), key, messages, length, tags);
      });
}

// The dispatching entry points run whole groups on the widest kernel
// and a lone leftover job or message on the scalar function; every
// count up to a few groups must still match.
TEST(BatchDispatch, PublicEntryPointsMatchTheReference) {
  util::pcg64 rng(test::seed(0xd15));
  const kernel_isa widest = detail::dispatched_isa();
  std::printf("[ kernels  ] dispatched: %s (%zu ChaCha20 lanes, %zu SipHash "
              "lanes)\n",
              detail::kernel_name(widest), detail::chacha_lanes(widest),
              detail::siphash_lanes(widest));
  for (std::size_t count = 0; count <= 3 * detail::chacha_lanes(widest) + 2;
       ++count) {
    const chacha_key key = random_key(rng);
    job_list list(rng, count);
    const auto expected = list.reference(key);
    chacha20_xor_jobs(key, list.jobs);
    ASSERT_EQ(list.buffers, expected) << count << " jobs";

    siphash_key mac_key;
    for (auto& byte : mac_key) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    std::vector<std::uint8_t> bytes(count * 100 + 1);
    for (auto& byte : bytes) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    std::vector<const std::uint8_t*> messages;
    for (std::size_t i = 0; i < count; ++i) {
      messages.push_back(bytes.data() + 1 + 100 * i);
    }
    std::vector<std::uint64_t> tags(count, 0);
    siphash24_many(mac_key, messages, 100, tags);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(tags[i], siphash24(mac_key, {messages[i], 100}))
          << "message " << i << " of " << count;
    }
  }
}

TEST(BatchDispatch, ReferenceVectorsThroughThePublicEntryPoints) {
  const kernel_isa widest = detail::dispatched_isa();
  expect_rfc8439_vectors(detail::chacha_lanes(widest), chacha20_xor_jobs);
  expect_siphash_vectors(detail::siphash_lanes(widest) + 1, siphash24_many);
}

TEST(BatchDispatch, DispatchesTheWidestKernelTheHostRuns) {
  const kernel_isa widest = detail::dispatched_isa();
  EXPECT_TRUE(detail::host_runs(widest));
  EXPECT_TRUE(detail::host_runs(kernel_isa::portable));
  for (const kernel_isa isa : detail::all_kernel_isas) {
    if (detail::chacha_lanes(isa) > detail::chacha_lanes(widest)) {
      EXPECT_FALSE(detail::host_runs(isa)) << detail::kernel_name(isa);
    }
  }
}

}  // namespace
}  // namespace horam::crypto
