#include "oram/common/block_codec.h"

#include <cstring>

#include "util/contracts.h"

namespace horam::oram {

std::uint64_t logical_block_bytes(std::uint64_t configured,
                                  std::size_t record_bytes) {
  const std::uint64_t logical = configured != 0 ? configured : record_bytes;
  expects(logical >= record_bytes, "logical block cannot hold the record");
  return logical;
}

block_codec::block_codec(std::size_t payload_bytes, bool seal,
                         const crypto::seal_keys& keys)
    : payload_bytes_(payload_bytes),
      seal_(seal),
      record_bytes_(record_bytes_for(payload_bytes, seal)),
      sealer_(keys),
      opened_(8 + payload_bytes) {
  expects(payload_bytes > 0, "payload must be non-empty");
}

void block_codec::encode(block_id id, std::span<const std::uint8_t> payload,
                         std::span<std::uint8_t> record_out) {
  encode_plain(id, payload, record_out);
  seal_many(std::span<const std::span<std::uint8_t>>(&record_out, 1));
}

void block_codec::encode_dummy(std::span<std::uint8_t> record_out) {
  encode(dummy_block_id, {}, record_out);
}

block_id block_codec::decode(std::span<const std::uint8_t> record,
                             std::span<std::uint8_t> payload_out) const {
  if (!payload_out.empty()) {
    expects(payload_out.size() >= payload_bytes_,
            "payload buffer too small");
    payload_out = payload_out.first(payload_bytes_);
  }
  block_id id = dummy_block_id;
  decode_many(std::span<const std::span<const std::uint8_t>>(&record, 1),
              std::span<block_id>(&id, 1), payload_out);
  return id;
}

void block_codec::encode_plain(block_id id,
                               std::span<const std::uint8_t> payload,
                               std::span<std::uint8_t> record_out) const {
  expects(record_out.size() >= record_bytes_, "record buffer too small");
  expects(payload.size() <= payload_bytes_, "payload larger than block");

  // id || payload || zero pad, written where the sealer expects its
  // plaintext.
  std::uint8_t* const plain =
      record_out.data() + (seal_ ? crypto::seal_nonce_bytes : 0);
  for (int i = 0; i < 8; ++i) {
    plain[i] = static_cast<std::uint8_t>(id >> (8 * i));
  }
  if (!payload.empty()) {
    std::memcpy(plain + 8, payload.data(), payload.size());
  }
  std::memset(plain + 8 + payload.size(), 0, payload_bytes_ - payload.size());
}

void block_codec::seal_many(
    std::span<const std::span<std::uint8_t>> records) {
  for (const std::span<std::uint8_t> record : records) {
    expects(record.size() >= record_bytes_, "record buffer too small");
  }
  if (seal_) {
    // One contiguous keystream per record; the sealer leaves the bytes
    // past record_bytes alone.
    const crypto::keystream_piece whole{0, 8 + payload_bytes_, 0};
    sealer_.seal_many(records,
                      std::span<const crypto::keystream_piece>(&whole, 1));
  }
}

void block_codec::decode_many(
    std::span<const std::span<const std::uint8_t>> records,
    std::span<block_id> ids_out, std::span<std::uint8_t> payloads_out) const {
  const std::size_t count = records.size();
  for (const std::span<const std::uint8_t> record : records) {
    expects(record.size() >= record_bytes_, "record buffer too small");
  }
  expects(ids_out.size() == count, "id buffer must hold one id per record");
  expects(payloads_out.empty() || payloads_out.size() == count * payload_bytes_,
          "payload buffer must hold one payload per record");

  // Open every record (just its id when no payload is wanted) into the
  // scratch before writing any output.
  const std::size_t opened_bytes =
      payloads_out.empty() ? 8 : 8 + payload_bytes_;
  if (opened_.size() < count * opened_bytes) {
    opened_.resize(count * opened_bytes);
  }
  const auto opened = [&](std::size_t i) {
    return std::span<std::uint8_t>(opened_).subspan(i * opened_bytes,
                                                    opened_bytes);
  };
  if (seal_) {
    sealer_.verify_many(records, record_bytes_);
    const crypto::keystream_piece wanted{0, opened_bytes, 0};
    if (count == 1) {
      // A lone record through the one-nonce kernel, no job queue.
      sealer_.open_range(records[0].first(record_bytes_), wanted, opened(0));
    } else {
      crypto::block_sealer::range_batch batch(sealer_);
      for (std::size_t i = 0; i < count; ++i) {
        batch.add(records[i].first(record_bytes_), wanted, opened(i));
      }
      batch.flush();
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::memcpy(opened(i).data(), records[i].data(), opened_bytes);
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* const plain = opened(i).data();
    block_id id = 0;
    for (int b = 0; b < 8; ++b) {
      id |= static_cast<block_id>(plain[b]) << (8 * b);
    }
    ids_out[i] = id;
    if (!payloads_out.empty()) {
      std::memcpy(payloads_out.data() + i * payload_bytes_, plain + 8,
                  payload_bytes_);
    }
  }
}

}  // namespace horam::oram
