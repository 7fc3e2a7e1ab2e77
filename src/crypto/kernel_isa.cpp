#include "crypto/detail/kernels.h"

#include <array>

namespace horam::crypto::detail {

namespace {

struct kernel_shape {
  const char* name;
  std::size_t chacha_lanes;
  std::size_t siphash_lanes;
};

/// Indexed by kernel_isa.
constexpr kernel_shape shapes[] = {
    {"portable", 4, 1}, {"avx2", 8, 4}, {"avx512", 16, 8}};

const kernel_shape& shape(kernel_isa isa) noexcept {
  return shapes[static_cast<std::size_t>(isa)];
}

}  // namespace

const char* kernel_name(kernel_isa isa) noexcept { return shape(isa).name; }

std::size_t chacha_lanes(kernel_isa isa) noexcept {
  return shape(isa).chacha_lanes;
}

std::size_t siphash_lanes(kernel_isa isa) noexcept {
  return shape(isa).siphash_lanes;
}

bool host_runs(kernel_isa isa) noexcept {
  // Indexed by kernel_isa; CPUID (and XGETBV for OS-enabled vector
  // state) is read once.
  static const std::array<bool, 3> runs = [] {
    std::array<bool, 3> r = {true, false, false};
#if defined(__x86_64__)
    __builtin_cpu_init();
    r[1] = __builtin_cpu_supports("avx2");
    r[2] = __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512vl");
#endif
    return r;
  }();
  return runs[static_cast<std::size_t>(isa)];
}

kernel_isa dispatched_isa() noexcept {
  static const kernel_isa widest = [] {
    kernel_isa best = kernel_isa::portable;
    for (const kernel_isa isa : all_kernel_isas) {
      if (host_runs(isa)) {
        best = isa;
      }
    }
    return best;
  }();
  return widest;
}

}  // namespace horam::crypto::detail
