// Encoding of logical blocks into fixed-size store records.
//
// Record layout (plaintext form): 8-byte little-endian block id followed
// by the payload. With sealing enabled the whole plaintext is wrapped by
// crypto::block_sealer (nonce || ciphertext || mac), so records on
// untrusted stores reveal nothing — in particular not whether they are
// dummies — and are integrity-protected.
//
// Sealing can be disabled for large benchmark runs: records are stored
// in the clear, but callers still charge the modelled crypto time, so
// virtual-time results are identical.
//
// Backends that read single slots — ring, hier, sqrt and the
// partitioned storage layer — use these per-slot records: each slot is
// opened on its own, so each carries its own nonce and MAC. Path ORAM
// only ever moves whole buckets and seals each bucket as one unit
// instead (oram/common/bucket_codec.h), in the same store geometry.
//
// Neither encode nor decode allocates. encode writes the plaintext
// straight into the caller's record and seals it there; decode opens
// sealed records into a scratch buffer the codec owns. That scratch
// makes even const decode calls unsafe to run concurrently, so a codec
// stays confined to the one shard (and thread) that owns its store.
#ifndef HORAM_ORAM_COMMON_BLOCK_CODEC_H
#define HORAM_ORAM_COMMON_BLOCK_CODEC_H

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/seal.h"
#include "oram/common/types.h"

namespace horam::oram {

/// Encodes and decodes (id, payload) pairs to fixed-size records.
class block_codec {
 public:
  /// `payload_bytes` is the application payload per block; `seal` turns
  /// real encryption + MAC on; `key_seed` derives the keys.
  block_codec(std::size_t payload_bytes, bool seal, std::uint64_t key_seed);

  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  [[nodiscard]] std::size_t record_bytes() const noexcept {
    return record_bytes_;
  }
  [[nodiscard]] bool sealing() const noexcept { return seal_; }

  /// Encodes a block into `record_out` (record_bytes long); `payload`
  /// must not overlap it. A dummy block is encoded by passing
  /// dummy_block_id and an empty payload.
  void encode(block_id id, std::span<const std::uint8_t> payload,
              std::span<std::uint8_t> record_out);

  /// Convenience for dummy records.
  void encode_dummy(std::span<std::uint8_t> record_out);

  /// Decodes a record; returns the block id (dummy_block_id for
  /// dummies) and copies the payload into `payload_out` if non-empty.
  /// `payload_out` may lie inside `record`, to decode in place.
  /// Throws crypto::crypto_error on MAC failure when sealing.
  block_id decode(std::span<const std::uint8_t> record,
                  std::span<std::uint8_t> payload_out) const;

 private:
  std::size_t payload_bytes_;
  bool seal_;
  std::size_t record_bytes_;
  crypto::block_sealer sealer_;
  /// Opened plaintext (id || payload) of the last sealed decode.
  mutable std::vector<std::uint8_t> opened_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_BLOCK_CODEC_H
