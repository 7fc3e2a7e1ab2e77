// Encoding of a tree bucket (Z slots) as one sealed unit.
//
// Bucket layout (plaintext form): the Z payloads, payload_bytes each,
// then the Z 8-byte little-endian block ids (dummy_block_id for empty
// slots). With sealing on, crypto::block_sealer wraps the whole bucket
// as one record, nonce || ciphertext || mac:
//
//   [nonce 12][payload 0]...[payload Z-1][id 0]...[id Z-1][mac 8]
//
// A bucket therefore costs one nonce, one keystream and one MAC, not Z
// of each. Payload k is encrypted at keystream offset k * stride, where
// stride is payload_bytes rounded up to the 64-byte ChaCha20 block, and
// the id header follows at Z * stride. Opening checks the MAC over
// nonce || ciphertext first, then decrypts the id header (one keystream
// block for Z <= 8) and then only the payloads of real slots, each by
// seeking the keystream. Sealing still encrypts every slot, dummies
// included, so each written bucket is a fresh random-looking image.
//
// A bucket occupies the Z records a store reserves for it: record_bytes
// is block_codec's record size for the same payload, and the sealed
// bucket (12 + Z * (8 + payload_bytes) + 8 bytes) fits in Z of them.
// Bytes past it are written as zeros. Unsealed buckets fill the span
// exactly.
//
// Only Path ORAM reads and writes whole buckets. Backends that read
// single slots (ring, hier, sqrt, partition, partitioned) keep per-slot
// block_codec records, since opening one slot of a sealed bucket would
// still mean a MAC pass over all of it.
#ifndef HORAM_ORAM_COMMON_BUCKET_CODEC_H
#define HORAM_ORAM_COMMON_BUCKET_CODEC_H

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/seal.h"
#include "oram/common/types.h"

namespace horam::oram {

/// Encodes and decodes buckets of `slots` (id, payload) pairs.
class bucket_codec {
 public:
  /// A real block placed in a bucket. `payload` holds at most
  /// payload_bytes; shorter payloads are zero padded.
  struct entry {
    block_id id = dummy_block_id;
    std::span<const std::uint8_t> payload;
  };

  /// `slots` is the bucket size Z; `seal` turns real encryption + MAC
  /// on; `key_seed` derives the keys.
  bucket_codec(std::uint32_t slots, std::size_t payload_bytes, bool seal,
               std::uint64_t key_seed);

  [[nodiscard]] std::uint32_t slots() const noexcept { return slots_; }
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  /// Bytes of one store record (block_codec's record size).
  [[nodiscard]] std::size_t record_bytes() const noexcept {
    return record_bytes_;
  }
  /// Bytes of one encoded bucket: slots() records.
  [[nodiscard]] std::size_t bucket_bytes() const noexcept {
    return slots_ * record_bytes_;
  }

  /// Byte offsets inside an encoded bucket. The MAC sits at
  /// mac_offset() when sealing.
  [[nodiscard]] std::size_t payload_offset(std::uint32_t k) const noexcept {
    return plain_offset() + std::size_t{k} * payload_bytes_;
  }
  [[nodiscard]] std::size_t id_offset(std::uint32_t k) const noexcept {
    return plain_offset() + slots_ * payload_bytes_ + 8 * std::size_t{k};
  }
  [[nodiscard]] std::size_t mac_offset() const noexcept {
    return id_offset(slots_);
  }

  /// Encodes `reals` into slots 0 .. reals.size()-1 and dummies into the
  /// rest, writing bucket_bytes() bytes to `bucket_out`. At most slots()
  /// entries; payloads must not overlap `bucket_out`.
  void encode(std::span<const entry> reals,
              std::span<std::uint8_t> bucket_out);

  /// An all-dummy bucket.
  void encode_dummy(std::span<std::uint8_t> bucket_out) {
    encode({}, bucket_out);
  }

  /// Decodes a bucket. Writes the slots() slot ids to `ids_out` and, if
  /// `payloads_out` is non-empty (slots() * payload_bytes long), the
  /// payload of every real slot k to payloads_out[k * payload_bytes, ..)
  /// — dummy slots are never decrypted and their bytes there are left
  /// alone. Returns the number of real slots. When sealing, the MAC is
  /// checked first: on failure it throws crypto::crypto_error and writes
  /// neither output.
  std::uint32_t decode(std::span<const std::uint8_t> bucket,
                       std::span<block_id> ids_out,
                       std::span<std::uint8_t> payloads_out) const;

 private:
  [[nodiscard]] std::size_t plain_offset() const noexcept {
    return seal_ ? crypto::seal_nonce_bytes : 0;
  }
  /// Bytes of the sealed (or plain) bucket inside its span.
  [[nodiscard]] std::size_t image_bytes() const noexcept {
    return mac_offset() + (seal_ ? crypto::seal_mac_bytes : 0);
  }

  std::uint32_t slots_;
  std::size_t payload_bytes_;
  bool seal_;
  std::size_t record_bytes_;
  crypto::block_sealer sealer_;
  /// Keystream layout: one piece per payload, then the id header.
  std::vector<crypto::keystream_piece> pieces_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_BUCKET_CODEC_H
