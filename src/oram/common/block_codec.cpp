#include "oram/common/block_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>

#include "util/contracts.h"

namespace horam::oram {

namespace {

// Ids are copied as host words; the format is little-endian.
static_assert(std::endian::native == std::endian::little,
              "unit id header assumes a little-endian host");

constexpr std::size_t keystream_block_bytes = 64;

/// Whether `out` shares a byte with the first `bytes` of any unit.
bool overlaps_any(std::span<const std::uint8_t> out,
                  std::span<const std::span<const std::uint8_t>> units,
                  std::size_t bytes) {
  const std::less<const std::uint8_t*> before;
  return std::any_of(units.begin(), units.end(), [&](const auto& unit) {
    return before(out.data(), unit.data() + bytes) &&
           before(unit.data(), out.data() + out.size());
  });
}

}  // namespace

std::uint64_t logical_block_bytes(std::uint64_t configured,
                                  std::size_t record_bytes) {
  const std::uint64_t logical = configured != 0 ? configured : record_bytes;
  expects(logical >= record_bytes, "logical block cannot hold the record");
  return logical;
}

block_codec::block_codec(std::uint32_t slots, std::size_t payload_bytes,
                         bool seal, const crypto::seal_keys& keys)
    : slots_(slots),
      payload_bytes_(payload_bytes),
      seal_(seal),
      record_bytes_(record_bytes_for(payload_bytes, seal)),
      sealer_(keys),
      opened_(payload_bytes + 8) {
  expects(slots > 0, "a unit needs at least one slot");
  expects(payload_bytes > 0, "payload must be non-empty");
  expects(!seal || keys.encryption_key != crypto::chacha_key{} ||
              keys.mac_key != crypto::siphash_key{},
          "sealing under all-zero keys: take them from crypto::key_schedule");
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

void block_codec::encode(std::span<const entry> reals,
                         std::span<std::uint8_t> unit_out) {
  encode_plain(reals, unit_out);
  seal_many(std::span<const std::span<std::uint8_t>>(&unit_out, 1));
}

std::uint32_t block_codec::decode(std::span<const std::uint8_t> unit,
                                  std::span<block_id> ids_out,
                                  std::span<std::uint8_t> payloads_out) const {
  return decode_many(std::span<const std::span<const std::uint8_t>>(&unit, 1),
                     ids_out, payloads_out);
}

block_id block_codec::decode(std::span<const std::uint8_t> unit,
                             std::span<std::uint8_t> payload_out) const {
  expects(slots_ == 1, "a lone-id decode needs a one-slot unit");
  if (!payload_out.empty()) {
    expects(payload_out.size() >= payload_bytes_, "payload buffer too small");
    payload_out = payload_out.first(payload_bytes_);
  }
  block_id id = dummy_block_id;
  decode(unit, std::span<block_id>(&id, 1), payload_out);
  return id;
}

void block_codec::encode_plain(std::span<const entry> reals,
                               std::span<std::uint8_t> unit_out) const {
  expects(reals.size() <= slots_, "more real blocks than unit slots");
  expects(unit_out.size() >= bucket_bytes(), "unit buffer too small");

  // Plaintext where the sealer expects it: payloads (dummies as zeros,
  // so they are encrypted too), then the id header.
  for (std::uint32_t k = 0; k < slots_; ++k) {
    std::uint8_t* const payload = unit_out.data() + payload_offset(k);
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
    std::memcpy(unit_out.data() + id_offset(k), &id, sizeof id);
  }
  std::memset(unit_out.data() + image_bytes(), 0,
              bucket_bytes() - image_bytes());
}

void block_codec::seal_many(std::span<const std::span<std::uint8_t>> units) {
  for (const std::span<std::uint8_t> unit : units) {
    expects(unit.size() >= bucket_bytes(), "unit buffer too small");
  }
  if (seal_) {
    // The pieces cover the image; the sealer leaves the bytes past it.
    sealer_.seal_many(units, pieces_);
  }
}

std::uint32_t block_codec::decode_many(
    std::span<const std::span<const std::uint8_t>> units,
    std::span<block_id> ids_out, std::span<std::uint8_t> payloads_out) const {
  const std::size_t count = units.size();
  for (const std::span<const std::uint8_t> unit : units) {
    expects(unit.size() >= bucket_bytes(), "unit buffer too small");
  }
  expects(ids_out.size() == count * slots_,
          "id buffer must hold one id per slot");
  expects(payloads_out.empty() ||
              payloads_out.size() == count * slots_ * payload_bytes_,
          "payload buffer must hold one payload per slot");

  const auto image = [&](std::size_t i) {
    return units[i].first(image_bytes());
  };
  if (seal_) {
    // Every MAC of the batch before any output byte.
    sealer_.verify_many(units, image_bytes());
    if (count == 1 && slots_ == 1 && !payloads_out.empty()) {
      // A lone record wanted whole (an online load): payload and id in
      // one pass, through the one-nonce kernel.
      sealer_.open_pieces(image(0), pieces_,
                          std::span(opened_).first(payload_bytes_ + 8));
      std::memcpy(ids_out.data(), opened_.data() + payload_bytes_, 8);
      if (ids_out[0] == dummy_block_id) {
        return 0;
      }
      std::memcpy(payloads_out.data(), opened_.data(), payload_bytes_);
      return 1;
    }
  }

  // The id headers, all in one batch.
  const auto id_bytes = [&](std::size_t i) {
    return std::span<std::uint8_t>(
        reinterpret_cast<std::uint8_t*>(ids_out.data() + i * slots_),
        8 * std::size_t{slots_});
  };
  if (seal_) {
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
  const auto reals = static_cast<std::uint32_t>(
      count * slots_ - static_cast<std::size_t>(std::count(
                           ids_out.begin(), ids_out.end(), dummy_block_id)));
  if (payloads_out.empty()) {
    return reals;
  }

  // The real slots' payloads, all in one batch: straight into the
  // output, or into the scratch when the output overlaps a unit.
  const bool staged = overlaps_any(payloads_out, units, image_bytes());
  if (staged && opened_.size() < reals * payload_bytes_) {
    opened_.resize(reals * payload_bytes_);
  }
  const auto for_each_real = [&](auto open) {
    std::size_t r = 0;
    for (std::size_t slot = 0; slot < count * slots_; ++slot) {
      if (ids_out[slot] != dummy_block_id) {
        open(slot, r++);
      }
    }
  };
  crypto::block_sealer::range_batch payloads(sealer_);
  for_each_real([&](std::size_t slot, std::size_t r) {
    const std::span<std::uint8_t> out =
        staged ? std::span(opened_).subspan(r * payload_bytes_, payload_bytes_)
               : payloads_out.subspan(slot * payload_bytes_, payload_bytes_);
    const std::size_t i = slot / slots_;
    const auto k = static_cast<std::uint32_t>(slot % slots_);
    if (seal_) {
      payloads.add(image(i), pieces_[k], out);
    } else {
      std::memcpy(out.data(), image(i).data() + payload_offset(k),
                  payload_bytes_);
    }
  });
  payloads.flush();
  if (staged) {
    for_each_real([&](std::size_t slot, std::size_t r) {
      std::memcpy(payloads_out.data() + slot * payload_bytes_,
                  opened_.data() + r * payload_bytes_, payload_bytes_);
    });
  }
  return reals;
}

}  // namespace horam::oram
