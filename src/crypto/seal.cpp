#include "crypto/seal.h"

#include <cstring>

#include "util/contracts.h"

namespace horam::crypto {

seal_keys derive_seal_keys(std::uint64_t master_seed) {
  // Expand the master seed through a ChaCha20 stream keyed off the seed;
  // the first 32 bytes become the encryption key, the next 16 the MAC key.
  chacha_rng expander(master_seed, /*stream=*/0x5ea1);
  seal_keys keys;
  for (auto& byte : keys.encryption_key) {
    byte = static_cast<std::uint8_t>(expander.next_u64());
  }
  for (auto& byte : keys.mac_key) {
    byte = static_cast<std::uint8_t>(expander.next_u64());
  }
  return keys;
}

block_sealer::block_sealer(const seal_keys& keys) : keys_(keys) {}

void block_sealer::seal_in_place(std::span<std::uint8_t> record) {
  expects(record.size() >= seal_overhead,
          "sealed record shorter than seal overhead");
  const keystream_piece whole{0, record.size() - seal_overhead, 0};
  seal_in_place(record, std::span<const keystream_piece>(&whole, 1));
}

void block_sealer::seal_in_place(std::span<std::uint8_t> record,
                                 std::span<const keystream_piece> pieces) {
  expects(record.size() >= seal_overhead,
          "sealed record shorter than seal overhead");
  const std::size_t payload_size = record.size() - seal_overhead;
  std::size_t covered = 0;
  std::uint64_t keystream_end = 0;
  for (const keystream_piece& piece : pieces) {
    expects(piece.offset == covered, "keystream pieces must tile in order");
    expects(piece.keystream_offset >= keystream_end,
            "keystream pieces must not share keystream");
    covered += piece.length;
    keystream_end = piece.keystream_offset + piece.length;
  }
  expects(covered == payload_size,
          "keystream pieces must cover the whole ciphertext");

  // Nonce: 8-byte counter || 4 zero bytes. Unique per seal per instance.
  chacha_nonce nonce{};
  const std::uint64_t n = nonce_counter_++;
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(n >> (8 * i));
  }
  std::memcpy(record.data(), nonce.data(), nonce.size());

  // Ciphertext, in place over the plaintext.
  const std::span<std::uint8_t> body =
      record.subspan(seal_nonce_bytes, payload_size);
  for (const keystream_piece& piece : pieces) {
    chacha20_xor_at(keys_.encryption_key, nonce, /*initial_counter=*/1,
                    piece.keystream_offset,
                    body.subspan(piece.offset, piece.length));
  }

  // MAC over nonce || ciphertext.
  const std::uint64_t tag = siphash24(
      keys_.mac_key, record.first(seal_nonce_bytes + payload_size));
  std::uint8_t* const mac = record.data() + seal_nonce_bytes + payload_size;
  for (int i = 0; i < 8; ++i) {
    mac[i] = static_cast<std::uint8_t>(tag >> (8 * i));
  }
}

void block_sealer::verify(std::span<const std::uint8_t> sealed) const {
  if (sealed.size() < seal_overhead) {
    throw crypto_error("sealed buffer shorter than seal overhead");
  }
  const std::size_t payload_size = sealed.size() - seal_overhead;
  const std::uint64_t expected_tag = siphash24(
      keys_.mac_key, sealed.first(seal_nonce_bytes + payload_size));
  std::uint64_t stored_tag = 0;
  for (int i = 0; i < 8; ++i) {
    stored_tag |= static_cast<std::uint64_t>(
                      sealed[seal_nonce_bytes + payload_size +
                             static_cast<std::size_t>(i)])
                  << (8 * i);
  }
  if (stored_tag != expected_tag) {
    throw crypto_error("MAC verification failed: block tampered or corrupt");
  }
}

void block_sealer::open_range(std::span<const std::uint8_t> sealed,
                              const keystream_piece& piece,
                              std::span<std::uint8_t> plain_out) const {
  expects(sealed.size() >= seal_overhead &&
              piece.offset <= sealed.size() - seal_overhead &&
              piece.length <= sealed.size() - seal_overhead - piece.offset,
          "keystream piece outside the sealed ciphertext");
  expects(plain_out.size() == piece.length,
          "plaintext buffer must match the piece length");
  if (piece.length == 0) {
    return;
  }
  chacha_nonce nonce{};
  std::memcpy(nonce.data(), sealed.data(), nonce.size());
  std::memcpy(plain_out.data(),
              sealed.data() + seal_nonce_bytes + piece.offset, piece.length);
  chacha20_xor_at(keys_.encryption_key, nonce, /*initial_counter=*/1,
                  piece.keystream_offset, plain_out);
}

void block_sealer::open_into(std::span<const std::uint8_t> sealed,
                             std::span<std::uint8_t> plain_out) const {
  if (sealed.size() < seal_overhead) {
    throw crypto_error("sealed buffer shorter than seal overhead");
  }
  const std::size_t payload_size = sealed.size() - seal_overhead;
  expects(plain_out.size() == payload_size,
          "plaintext buffer must match the sealed payload size");
  verify(sealed);
  open_range(sealed, keystream_piece{0, payload_size, 0}, plain_out);
}

}  // namespace horam::crypto
