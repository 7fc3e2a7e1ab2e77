// Encoding of a tree bucket (Z slots) as one sealed unit.
//
// Bucket layout (plaintext form): the Z payloads, payload_bytes each,
// then the Z 8-byte little-endian id words (dummy_block_id for empty
// slots), each id ‖ leaf (tree_core::pack_record). With sealing on,
// crypto::block_sealer wraps the whole bucket as one record,
// nonce || ciphertext || mac:
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
// Path ORAM opens and re-seals a whole path at a time, so the codec
// also works on windows of buckets, each a list of bucket spans handed
// whole to the sealer (the caller picks the window's size):
// decode_many() verifies every MAC of the window first and writes
// nothing unless all pass, then decrypts all id headers in one
// lane-parallel batch and all real payloads in another; encode_plain()
// composes buckets and seal_many() seals a list of them in one batch,
// nonces in list order. The bytes are those of the per-bucket calls.
//
// A bucket occupies the Z records a store reserves for it: record_bytes
// is block_codec's record size for the same payload, and the sealed
// bucket (12 + Z * (8 + payload_bytes) + 8 bytes) fits in Z of them.
// Bytes past it are written as zeros. Unsealed buckets fill the span
// exactly.
//
// Only Path ORAM reads and writes whole buckets. Backends that read
// single slots (ring, hier, partitioned) keep per-slot
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
  using entry = block_ref;

  /// `slots` is the bucket size Z; `seal` turns real encryption + MAC
  /// on, under `keys`.
  bucket_codec(std::uint32_t slots, std::size_t payload_bytes, bool seal,
               const crypto::seal_keys& keys);

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
  [[nodiscard]] const crypto::seal_keys& keys() const noexcept {
    return sealer_.keys();
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
  /// entries; payloads must not overlap `bucket_out`. encode_plain()
  /// then seal_many() of the one bucket.
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
  /// neither output. decode_many() of a one-bucket window.
  std::uint32_t decode(std::span<const std::uint8_t> bucket,
                       std::span<block_id> ids_out,
                       std::span<std::uint8_t> payloads_out) const;

  // ------------------------------------------------------------------
  // Window API: many buckets per call, so the sealing kernels run with
  // every SIMD lane busy (crypto/chacha20.h, crypto/siphash.h). A
  // window is a list of bucket spans, each at least bucket_bytes()
  // long; the buckets need not be adjacent.

  /// encode() without the sealing: writes the plaintext image (payloads,
  /// then the id header; dummies as zeros) and zeroes the bytes past it.
  /// A sealed codec's bucket is ready to store only after seal_many().
  void encode_plain(std::span<const entry> reals,
                    std::span<std::uint8_t> bucket_out) const;

  /// Seals buckets encode_plain() composed, in list order: buckets[i]
  /// takes the i-th fresh nonce, exactly as encode() one bucket after
  /// another would (a path write-back lists its buckets leaf to root).
  /// Each span holds at least bucket_bytes(). No-op when not sealing.
  void seal_many(std::span<const std::span<std::uint8_t>> buckets);

  /// decode() of every bucket of a window. `ids_out` receives
  /// buckets.size() * slots() ids, bucket by bucket; `payloads_out`, if
  /// non-empty, holds as many payloads in the same order. When sealing,
  /// every MAC of the window is checked before anything is written: one
  /// failing bucket throws crypto::crypto_error and leaves both
  /// outputs untouched. Then all id headers are decrypted in one batch,
  /// then all real slots' payloads in another. Returns the number of
  /// real slots in the window.
  std::uint32_t decode_many(
      std::span<const std::span<const std::uint8_t>> buckets,
      std::span<block_id> ids_out, std::span<std::uint8_t> payloads_out) const;

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
