#include "oram/common/bucket_codec.h"

#include <bit>
#include <cstring>

#include "oram/common/block_codec.h"
#include "util/contracts.h"

namespace horam::oram {

namespace {

// Ids are copied as host words; the format is little-endian.
static_assert(std::endian::native == std::endian::little,
              "bucket id header assumes a little-endian host");

constexpr std::size_t keystream_block_bytes = 64;

}  // namespace

bucket_codec::bucket_codec(std::uint32_t slots, std::size_t payload_bytes,
                           bool seal, const crypto::seal_keys& keys)
    : slots_(slots),
      payload_bytes_(payload_bytes),
      seal_(seal),
      record_bytes_(record_bytes_for(payload_bytes, seal)),
      sealer_(keys) {
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
  encode_plain(reals, bucket_out);
  seal_many(std::span<const std::span<std::uint8_t>>(&bucket_out, 1));
}

std::uint32_t bucket_codec::decode(std::span<const std::uint8_t> bucket,
                                   std::span<block_id> ids_out,
                                   std::span<std::uint8_t> payloads_out)
    const {
  return decode_many(std::span<const std::span<const std::uint8_t>>(&bucket, 1),
                     ids_out, payloads_out);
}

void bucket_codec::encode_plain(std::span<const entry> reals,
                                std::span<std::uint8_t> bucket_out) const {
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
  std::memset(bucket_out.data() + image_bytes(), 0,
              bucket_bytes() - image_bytes());
}

void bucket_codec::seal_many(
    std::span<const std::span<std::uint8_t>> buckets) {
  for (const std::span<std::uint8_t> bucket : buckets) {
    expects(bucket.size() >= bucket_bytes(), "bucket buffer too small");
  }
  if (seal_) {
    // The pieces cover the image; the sealer leaves the bytes past it.
    sealer_.seal_many(buckets, pieces_);
  }
}

std::uint32_t bucket_codec::decode_many(
    std::span<const std::span<const std::uint8_t>> buckets,
    std::span<block_id> ids_out, std::span<std::uint8_t> payloads_out) const {
  const std::size_t count = buckets.size();
  for (const std::span<const std::uint8_t> bucket : buckets) {
    expects(bucket.size() >= bucket_bytes(), "bucket buffer too small");
  }
  expects(ids_out.size() == count * slots_,
          "id buffer must hold one id per slot");
  expects(payloads_out.empty() ||
              payloads_out.size() == count * slots_ * payload_bytes_,
          "payload buffer must hold one payload per slot");

  const auto image = [&](std::size_t i) {
    return buckets[i].first(image_bytes());
  };
  const auto id_bytes = [&](std::size_t i) {
    return std::span<std::uint8_t>(
        reinterpret_cast<std::uint8_t*>(ids_out.data() + i * slots_),
        8 * std::size_t{slots_});
  };
  if (seal_) {
    // Every MAC of the window before any output byte.
    sealer_.verify_many(buckets, image_bytes());
    crypto::block_sealer::range_batch headers(sealer_);
    for (std::size_t i = 0; i < count; ++i) {
      headers.add(image(i), pieces_.back(), id_bytes(i));
    }
    headers.flush();
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::memcpy(id_bytes(i).data(), image(i).data() + id_offset(0),
                  8 * std::size_t{slots_});
    }
  }

  std::uint32_t reals = 0;
  crypto::block_sealer::range_batch payloads(sealer_);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::uint32_t k = 0; k < slots_; ++k) {
      const std::size_t slot = i * slots_ + k;
      if (ids_out[slot] == dummy_block_id) {
        continue;
      }
      ++reals;
      if (payloads_out.empty()) {
        continue;
      }
      const std::span<std::uint8_t> payload =
          payloads_out.subspan(slot * payload_bytes_, payload_bytes_);
      if (seal_) {
        payloads.add(image(i), pieces_[k], payload);
      } else {
        std::memcpy(payload.data(), image(i).data() + payload_offset(k),
                    payload_bytes_);
      }
    }
  }
  payloads.flush();
  return reals;
}

}  // namespace horam::oram
