// Encoding of logical blocks into sealed units of `slots` blocks.
//
// The unit is the block of storage the client encrypts: a Path ORAM
// bucket of Z slots, or a one-slot record for the backends that read
// single slots (ring, hier and the partitioned storage layer), since
// opening one slot of a larger sealed unit would still mean a MAC pass
// over all of it. Both use one layout (plaintext form): the S payloads,
// payload_bytes each, then the S 8-byte little-endian id words
// (dummy_block_id for empty slots; a tree record's id word is id ‖ leaf,
// tree_core::pack_record). With sealing on, crypto::block_sealer wraps
// the whole unit, nonce || ciphertext || mac:
//
//   [nonce 12][payload 0]...[payload S-1][id 0]...[id S-1][mac 8]
//
// A unit therefore costs one nonce, one keystream and one MAC, not S of
// each, and records on untrusted stores reveal nothing — in particular
// not whether they are dummies — and are integrity-protected. Payload k
// is encrypted at keystream offset k * stride, where stride is
// payload_bytes rounded up to the 64-byte ChaCha20 block, and the id
// header follows at S * stride; pieces adjacent in keystream seal as
// one run, so a one-slot unit whose payload fills whole keystream
// blocks is one contiguous keystream. Sealing encrypts every slot,
// dummies included, so each written unit is a fresh random-looking
// image.
//
// A unit occupies the S records a store reserves for it: record_bytes
// is 8 + payload_bytes plus, when sealing, the nonce and MAC, and the
// sealed unit (12 + S * (8 + payload_bytes) + 8 bytes) fits in S of
// them. Bytes past it are written as zeros. A one-slot unit and an
// unsealed unit fill their span exactly.
//
// Sealing can be disabled for large benchmark runs: units are stored in
// the clear, but callers still charge the modelled crypto time. The
// charges are priced on the record size, so an unsealed run's virtual
// times differ from a sealed run's only through the 20-byte seal
// overhead its records lack.
//
// Wherever a backend moves many units at once — path windows, hier
// merges and builds, partition shuffles and deals, ring evictions,
// reshuffles and builds — it seals and opens them in batches, so their
// keystreams and MACs share the SIMD lanes of the sealing kernels
// (crypto/chacha20.h, crypto/siphash.h): encode_plain() composes units
// and seal_many() seals a list of them, nonces in list order;
// decode_many() checks every MAC of a list before it writes any output,
// then decrypts all id headers in one batch and only the real slots'
// payloads in another. The bytes are those of one encode() or decode()
// per unit, which are the one-unit batches. A lone one-slot unit opened
// for its payload (an online load) decrypts id and payload together.
//
// Neither encode nor decode allocates once warm. Payloads open straight
// into the caller's output unless it overlaps a unit of the batch (a
// partition shuffle, a hier merge or a ring eviction decodes in place):
// then they open into a scratch buffer the codec owns (grown to the
// largest batch seen) and are copied out once every unit is read. That
// scratch makes even const decode calls unsafe to run concurrently, so
// a codec stays confined to the one shard (and thread) that owns its
// store.
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

/// Encodes and decodes units of `slots` (id, payload) pairs.
class block_codec {
 public:
  /// A real block placed in a unit. `payload` holds at most
  /// payload_bytes; shorter payloads are zero padded.
  using entry = block_ref;

  /// `slots` is the unit's block count (a bucket's Z, or 1 for a
  /// per-slot record); `seal` turns real encryption + MAC on, under
  /// `keys`, which must come from crypto::key_schedule: sealing under
  /// the all-zero default keys throws util::contract_error.
  block_codec(std::uint32_t slots, std::size_t payload_bytes, bool seal,
              const crypto::seal_keys& keys);

  [[nodiscard]] std::uint32_t slots() const noexcept { return slots_; }
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  /// Bytes of one store record (record_bytes_for()).
  [[nodiscard]] std::size_t record_bytes() const noexcept {
    return record_bytes_;
  }
  /// Bytes of one encoded unit: slots() records.
  [[nodiscard]] std::size_t bucket_bytes() const noexcept {
    return slots_ * record_bytes_;
  }
  [[nodiscard]] const crypto::seal_keys& keys() const noexcept {
    return sealer_.keys();
  }

  /// Byte offsets inside an encoded unit. The MAC sits at mac_offset()
  /// when sealing.
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
  /// rest, writing bucket_bytes() bytes to `unit_out`. At most slots()
  /// entries; payloads must not overlap `unit_out`. encode_plain() then
  /// seal_many() of the one unit.
  void encode(std::span<const entry> reals, std::span<std::uint8_t> unit_out);
  /// encode() of one block into slot 0: dummy_block_id and an empty
  /// payload encode a dummy.
  void encode(block_id id, std::span<const std::uint8_t> payload,
              std::span<std::uint8_t> unit_out) {
    const entry real{id, payload};
    encode(std::span<const entry>(&real, 1), unit_out);
  }
  /// An all-dummy unit.
  void encode_dummy(std::span<std::uint8_t> unit_out) {
    encode(std::span<const entry>{}, unit_out);
  }

  /// Decodes a unit. Writes the slots() slot ids to `ids_out` and, if
  /// `payloads_out` is non-empty (slots() * payload_bytes long), the
  /// payload of every real slot k to payloads_out[k * payload_bytes, ..)
  /// — a dummy slot's bytes there are left alone. Returns the number of
  /// real slots. When sealing, the MAC is checked first: on failure it
  /// throws crypto::crypto_error and writes neither output.
  /// decode_many() of the one unit.
  std::uint32_t decode(std::span<const std::uint8_t> unit,
                       std::span<block_id> ids_out,
                       std::span<std::uint8_t> payloads_out) const;
  /// decode() of a one-slot unit: returns its id (dummy_block_id for a
  /// dummy) and, for a real block, copies the payload into the first
  /// payload_bytes of `payload_out` if that is non-empty. `payload_out`
  /// may lie inside `unit`, to decode in place.
  block_id decode(std::span<const std::uint8_t> unit,
                  std::span<std::uint8_t> payload_out) const;

  // ------------------------------------------------------------------
  // Batch API: many units per call, so the sealing kernels run with
  // every SIMD lane busy. A batch is a list of unit spans, each at least
  // bucket_bytes() long; the units need not be adjacent.

  /// encode() without the sealing: writes the plaintext image (payloads,
  /// then the id header; dummies as zeros) where the sealer expects it
  /// and zeroes the bytes past it. A sealed codec's unit is ready to
  /// store only after seal_many().
  void encode_plain(std::span<const entry> reals,
                    std::span<std::uint8_t> unit_out) const;
  /// encode_plain() of one block into slot 0.
  void encode_plain(block_id id, std::span<const std::uint8_t> payload,
                    std::span<std::uint8_t> unit_out) const {
    const entry real{id, payload};
    encode_plain(std::span<const entry>(&real, 1), unit_out);
  }

  /// Seals units encode_plain() composed, in list order: units[i] takes
  /// the i-th fresh nonce, exactly as encode() one unit after another
  /// would (a path write-back lists its buckets leaf to root). No-op
  /// when not sealing.
  void seal_many(std::span<const std::span<std::uint8_t>> units);

  /// decode() of every unit of a batch. `ids_out` receives
  /// units.size() * slots() ids, unit by unit; `payloads_out`, if
  /// non-empty, holds as many payloads in the same order and may overlap
  /// the units (every unit is read before any payload byte is written).
  /// When sealing, every MAC of the batch is checked before anything is
  /// written: one failing unit throws crypto::crypto_error and leaves
  /// both outputs untouched. Returns the number of real slots in the
  /// batch.
  std::uint32_t decode_many(
      std::span<const std::span<const std::uint8_t>> units,
      std::span<block_id> ids_out, std::span<std::uint8_t> payloads_out) const;

 private:
  [[nodiscard]] std::size_t plain_offset() const noexcept {
    return seal_ ? crypto::seal_nonce_bytes : 0;
  }
  /// Bytes of the sealed (or plain) unit inside its span.
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
  /// Opened payloads of the last decode that could not open in place,
  /// or the whole plaintext of a lone one-slot unit.
  mutable std::vector<std::uint8_t> opened_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_BLOCK_CODEC_H
