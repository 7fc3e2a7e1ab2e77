#include "oram/common/bucket_codec.h"

#include <bit>
#include <cstring>

#include "util/contracts.h"

namespace horam::oram {

namespace {

// Ids are copied as host words; the format is little-endian.
static_assert(std::endian::native == std::endian::little,
              "bucket id header assumes a little-endian host");

constexpr std::size_t keystream_block_bytes = 64;

}  // namespace

bucket_codec::bucket_codec(std::uint32_t slots, std::size_t payload_bytes,
                           bool seal, std::uint64_t key_seed)
    : slots_(slots),
      payload_bytes_(payload_bytes),
      seal_(seal),
      record_bytes_(8 + payload_bytes + (seal ? crypto::seal_overhead : 0)),
      sealer_(crypto::derive_seal_keys(key_seed)) {
  expects(slots > 0, "bucket needs at least one slot");
  expects(payload_bytes > 0, "payload must be non-empty");
  const std::size_t stride =
      (payload_bytes + keystream_block_bytes - 1) / keystream_block_bytes *
      keystream_block_bytes;
  pieces_.reserve(slots + 1);
  for (std::uint32_t k = 0; k < slots; ++k) {
    pieces_.push_back(crypto::keystream_piece{
        k * payload_bytes, payload_bytes, std::uint64_t{k} * stride});
  }
  pieces_.push_back(crypto::keystream_piece{
      slots * payload_bytes, 8 * std::size_t{slots},
      std::uint64_t{slots} * stride});
}

void bucket_codec::encode(std::span<const entry> reals,
                          std::span<std::uint8_t> bucket_out) {
  expects(reals.size() <= slots_, "more real blocks than bucket slots");
  expects(bucket_out.size() >= bucket_bytes(), "bucket buffer too small");

  // Plaintext where the sealer expects it: payloads (dummies as zeros,
  // so they are encrypted too), then the id header.
  for (std::uint32_t k = 0; k < slots_; ++k) {
    std::uint8_t* const payload = bucket_out.data() + payload_offset(k);
    std::size_t copied = 0;
    block_id id = dummy_block_id;
    if (k < reals.size()) {
      expects(reals[k].payload.size() <= payload_bytes_,
              "payload larger than block");
      copied = reals[k].payload.size();
      if (copied > 0) {
        std::memcpy(payload, reals[k].payload.data(), copied);
      }
      id = reals[k].id;
    }
    std::memset(payload + copied, 0, payload_bytes_ - copied);
    std::memcpy(bucket_out.data() + id_offset(k), &id, sizeof id);
  }

  if (seal_) {
    sealer_.seal_in_place(bucket_out.first(image_bytes()), pieces_);
  }
  std::memset(bucket_out.data() + image_bytes(), 0,
              bucket_bytes() - image_bytes());
}

std::uint32_t bucket_codec::decode(std::span<const std::uint8_t> bucket,
                                   std::span<block_id> ids_out,
                                   std::span<std::uint8_t> payloads_out)
    const {
  expects(bucket.size() >= bucket_bytes(), "bucket buffer too small");
  expects(ids_out.size() == slots_, "id buffer must hold one id per slot");
  expects(payloads_out.empty() ||
              payloads_out.size() == slots_ * payload_bytes_,
          "payload buffer must hold one payload per slot");

  const std::span<const std::uint8_t> image = bucket.first(image_bytes());
  const std::span<std::uint8_t> id_bytes(
      reinterpret_cast<std::uint8_t*>(ids_out.data()), 8 * ids_out.size());
  if (seal_) {
    sealer_.verify(image);
    sealer_.open_range(image, pieces_.back(), id_bytes);
  } else {
    std::memcpy(id_bytes.data(), image.data() + id_offset(0),
                id_bytes.size());
  }

  std::uint32_t reals = 0;
  for (std::uint32_t k = 0; k < slots_; ++k) {
    if (ids_out[k] == dummy_block_id) {
      continue;
    }
    ++reals;
    if (payloads_out.empty()) {
      continue;
    }
    const std::span<std::uint8_t> payload =
        payloads_out.subspan(k * payload_bytes_, payload_bytes_);
    if (seal_) {
      sealer_.open_range(image, pieces_[k], payload);
    } else {
      std::memcpy(payload.data(), image.data() + payload_offset(k),
                  payload_bytes_);
    }
  }
  return reals;
}

}  // namespace horam::oram
