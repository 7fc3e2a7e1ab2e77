// The per-width batch kernels behind chacha20_xor_jobs() and
// siphash24_many(), exposed so tests can check every width the host
// runs against the scalar reference, and benches can name the width
// they measured. Production code calls the dispatching entry points in
// crypto/chacha20.h and crypto/siphash.h; nothing here is a switch.
#ifndef HORAM_CRYPTO_DETAIL_KERNELS_H
#define HORAM_CRYPTO_DETAIL_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/chacha20.h"
#include "crypto/siphash.h"

namespace horam::crypto::detail {

/// Kernel families, narrowest first.
enum class kernel_isa { portable, avx2, avx512 };

inline constexpr kernel_isa all_kernel_isas[] = {
    kernel_isa::portable, kernel_isa::avx2, kernel_isa::avx512};

/// "portable", "avx2" or "avx512".
[[nodiscard]] const char* kernel_name(kernel_isa isa) noexcept;

/// ChaCha20 blocks per kernel call: 4, 8 or 16.
[[nodiscard]] std::size_t chacha_lanes(kernel_isa isa) noexcept;

/// SipHash messages per kernel call: 1 (scalar), 4 or 8.
[[nodiscard]] std::size_t siphash_lanes(kernel_isa isa) noexcept;

/// True iff this build contains the kernel and the host CPU (and OS)
/// runs it. The portable kernel always qualifies.
[[nodiscard]] bool host_runs(kernel_isa isa) noexcept;

/// The widest kernel host_runs() accepts: the one the dispatching
/// entry points use for whole groups. Fixed at the first call.
[[nodiscard]] kernel_isa dispatched_isa() noexcept;

/// chacha20_xor_jobs() with every group, the last one padded, on the
/// kernel `isa`. Requires host_runs(isa).
void chacha20_xor_jobs_on(kernel_isa isa, const chacha_key& key,
                          std::span<const chacha_job> jobs);

/// chacha20_xor(key, nonce, counter, data) with every group, the last
/// one padded, on the kernel `isa`: the one-nonce run chacha20_xor_at()
/// uses. Requires host_runs(isa).
void chacha20_xor_run_on(kernel_isa isa, const chacha_key& key,
                         const chacha_nonce& nonce, std::uint32_t counter,
                         std::span<std::uint8_t> data);

/// siphash24_many() with every group, the last one padded, on the
/// kernel `isa`. Requires host_runs(isa).
void siphash24_many_on(kernel_isa isa, const siphash_key& key,
                       std::span<const std::uint8_t* const> messages,
                       std::size_t length, std::span<std::uint64_t> tags);

}  // namespace horam::crypto::detail

#endif  // HORAM_CRYPTO_DETAIL_KERNELS_H
