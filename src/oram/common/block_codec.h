// Encoding of logical blocks into fixed-size store records.
//
// Record layout (plaintext form): 8-byte little-endian block id followed
// by the payload; a tree record's id word is id ‖ leaf
// (tree_core::pack_record). With sealing enabled the whole plaintext is
// wrapped by crypto::block_sealer (nonce || ciphertext || mac), so
// records on untrusted stores reveal nothing — in particular not
// whether they are dummies — and are integrity-protected.
//
// Sealing can be disabled for large benchmark runs: records are stored
// in the clear, but callers still charge the modelled crypto time. The
// charges are priced on the record size, so an unsealed run's virtual
// times differ from a sealed run's only through the 20-byte seal
// overhead its records lack.
//
// Backends that read single slots — ring, hier and the partitioned
// storage layer — use these per-slot records: each slot is opened on
// its own, so each carries its own nonce and MAC. Path ORAM only ever
// moves whole buckets and seals each bucket as one unit instead
// (oram/common/bucket_codec.h), in the same store geometry.
//
// Wherever a backend moves many records at once — hier merges and
// builds, partition shuffles and deals, ring evictions, reshuffles and
// builds — it seals and opens them in batches, so their keystreams and
// MACs share the SIMD lanes of the sealing kernels (crypto/chacha20.h,
// crypto/siphash.h): encode_plain() composes records and seal_many()
// seals a list of them, nonces in list order; decode_many() checks
// every MAC of a list before it writes any output, then decrypts all of
// them in one batch. The bytes are those of one encode() or decode()
// per record, which are the one-record batches.
//
// Neither encode nor decode allocates. encode writes the plaintext
// straight into the caller's record and seals it there; decoding opens
// records into a scratch buffer the codec owns (grown to the largest
// batch seen), so outputs may overlap the records. That scratch makes
// even const decode calls unsafe to run concurrently, so a codec stays
// confined to the one shard (and thread) that owns its store.
#ifndef HORAM_ORAM_COMMON_BLOCK_CODEC_H
#define HORAM_ORAM_COMMON_BLOCK_CODEC_H

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/seal.h"
#include "oram/common/types.h"

namespace horam::oram {

/// Bytes of one store record carrying `payload_bytes`: the 8-byte id,
/// the payload and, when sealing, the nonce and MAC.
[[nodiscard]] constexpr std::size_t record_bytes_for(
    std::size_t payload_bytes, bool seal) noexcept {
  return 8 + payload_bytes + (seal ? crypto::seal_overhead : 0);
}

/// The logical block size a backend times its device traffic with:
/// `configured`, or the record size when 0. Throws
/// util::contract_error when the record would not fit.
[[nodiscard]] std::uint64_t logical_block_bytes(std::uint64_t configured,
                                                std::size_t record_bytes);

/// Encodes and decodes (id, payload) pairs to fixed-size records.
class block_codec {
 public:
  /// `payload_bytes` is the application payload per block; `seal` turns
  /// real encryption + MAC on, under `keys`.
  block_codec(std::size_t payload_bytes, bool seal,
              const crypto::seal_keys& keys);

  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  [[nodiscard]] std::size_t record_bytes() const noexcept {
    return record_bytes_;
  }
  [[nodiscard]] bool sealing() const noexcept { return seal_; }
  [[nodiscard]] const crypto::seal_keys& keys() const noexcept {
    return sealer_.keys();
  }

  /// Encodes a block into `record_out` (record_bytes long); `payload`
  /// must not overlap it. A dummy block is encoded by passing
  /// dummy_block_id and an empty payload. encode_plain() then
  /// seal_many() of the one record.
  void encode(block_id id, std::span<const std::uint8_t> payload,
              std::span<std::uint8_t> record_out);

  /// Convenience for dummy records.
  void encode_dummy(std::span<std::uint8_t> record_out);

  /// Decodes a record; returns the block id (dummy_block_id for
  /// dummies) and copies the payload into `payload_out` if non-empty.
  /// `payload_out` may lie inside `record`, to decode in place.
  /// Throws crypto::crypto_error on MAC failure when sealing.
  /// decode_many() of the one record.
  block_id decode(std::span<const std::uint8_t> record,
                  std::span<std::uint8_t> payload_out) const;

  // ------------------------------------------------------------------
  // Batch API: many records per call, so the sealing kernels run with
  // every SIMD lane busy. A batch is a list of record spans, each at
  // least record_bytes() long; the records need not be adjacent.

  /// encode() without the sealing: writes id || payload || zero pad
  /// where the sealer expects its plaintext. A sealed codec's record is
  /// ready to store only after seal_many().
  void encode_plain(block_id id, std::span<const std::uint8_t> payload,
                    std::span<std::uint8_t> record_out) const;

  /// Seals records encode_plain() composed, in list order: records[i]
  /// takes the i-th fresh nonce, exactly as encode() one record after
  /// another would. No-op when not sealing.
  void seal_many(std::span<const std::span<std::uint8_t>> records);

  /// decode() of every record of a list: ids_out[i] receives the id of
  /// records[i] and, if `payloads_out` is non-empty (records.size() *
  /// payload_bytes long), its payload lands at
  /// payloads_out[i * payload_bytes, ..). When sealing, every MAC is
  /// checked before anything is written: one failing record throws
  /// crypto::crypto_error and leaves both outputs untouched. Every
  /// record is read before any output byte is written, so the outputs
  /// may overlap the records (a partition decodes in place).
  void decode_many(std::span<const std::span<const std::uint8_t>> records,
                   std::span<block_id> ids_out,
                   std::span<std::uint8_t> payloads_out) const;

 private:
  std::size_t payload_bytes_;
  bool seal_;
  std::size_t record_bytes_;
  crypto::block_sealer sealer_;
  /// Opened plaintext (id, or id || payload) of the last decode, one
  /// record after another.
  mutable std::vector<std::uint8_t> opened_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_BLOCK_CODEC_H
