#include "oram/common/block_codec.h"

#include <cstring>

#include "util/contracts.h"

namespace horam::oram {

block_codec::block_codec(std::size_t payload_bytes, bool seal,
                         std::uint64_t key_seed)
    : payload_bytes_(payload_bytes),
      seal_(seal),
      record_bytes_(8 + payload_bytes +
                    (seal ? crypto::seal_overhead : 0)),
      sealer_(crypto::derive_seal_keys(key_seed)),
      opened_(seal ? 8 + payload_bytes : 0) {
  expects(payload_bytes > 0, "payload must be non-empty");
}

void block_codec::encode(block_id id, std::span<const std::uint8_t> payload,
                         std::span<std::uint8_t> record_out) {
  expects(record_out.size() >= record_bytes_, "record buffer too small");
  expects(payload.size() <= payload_bytes_, "payload larger than block");

  // id || payload || zero pad, written where the sealer expects its
  // plaintext, then sealed in place.
  std::uint8_t* const plain =
      record_out.data() + (seal_ ? crypto::seal_nonce_bytes : 0);
  for (int i = 0; i < 8; ++i) {
    plain[i] = static_cast<std::uint8_t>(id >> (8 * i));
  }
  if (!payload.empty()) {
    std::memcpy(plain + 8, payload.data(), payload.size());
  }
  std::memset(plain + 8 + payload.size(), 0, payload_bytes_ - payload.size());

  if (seal_) {
    sealer_.seal_in_place(record_out.first(record_bytes_));
  }
}

void block_codec::encode_dummy(std::span<std::uint8_t> record_out) {
  encode(dummy_block_id, {}, record_out);
}

block_id block_codec::decode(std::span<const std::uint8_t> record,
                             std::span<std::uint8_t> payload_out) const {
  expects(record.size() >= record_bytes_, "record buffer too small");

  const std::uint8_t* plain = record.data();
  if (seal_) {
    sealer_.open_into(record.first(record_bytes_), opened_);
    plain = opened_.data();
  }

  block_id id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<block_id>(plain[i]) << (8 * i);
  }
  if (!payload_out.empty()) {
    expects(payload_out.size() >= payload_bytes_,
            "payload buffer too small");
    std::memcpy(payload_out.data(), plain + 8, payload_bytes_);
  }
  return id;
}

}  // namespace horam::oram
