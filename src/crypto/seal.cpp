#include "crypto/seal.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/contracts.h"

namespace horam::crypto {

namespace {

// MACs are stored little-endian, copied to and from host words.
static_assert(std::endian::native == std::endian::little,
              "MAC stores assume a little-endian host");

/// Bytes of ciphertext `pieces` cover. Throws contract_error unless
/// they tile it in order over ascending, disjoint keystream.
std::size_t tiled_bytes(std::span<const keystream_piece> pieces) {
  std::size_t covered = 0;
  std::uint64_t keystream_end = 0;
  for (const keystream_piece& piece : pieces) {
    expects(piece.offset == covered, "keystream pieces must tile in order");
    expects(piece.keystream_offset >= keystream_end,
            "keystream pieces must not share keystream");
    covered += piece.length;
    keystream_end = piece.keystream_offset + piece.length;
  }
  return covered;
}

/// Calls xor_run(offset, length, keystream_offset) once per run of
/// `pieces` adjacent in both ciphertext and keystream, merged.
template <typename XorRun>
void for_each_run(std::span<const keystream_piece> pieces, XorRun xor_run) {
  for (std::size_t first = 0; first < pieces.size();) {
    std::size_t last = first;
    while (last + 1 < pieces.size() &&
           pieces[last + 1].keystream_offset ==
               pieces[last].keystream_offset + pieces[last].length) {
      ++last;
    }
    xor_run(pieces[first].offset,
            pieces[last].offset + pieces[last].length - pieces[first].offset,
            pieces[first].keystream_offset);
    first = last + 1;
  }
}

/// Checks `piece` against `sealed` and `plain_out`, and copies its
/// ciphertext to `plain_out` and the record's nonce to `nonce`. Returns
/// false for an empty piece, which needs no keystream.
bool copy_piece(std::span<const std::uint8_t> sealed,
                const keystream_piece& piece,
                std::span<std::uint8_t> plain_out, chacha_nonce& nonce) {
  expects(sealed.size() >= seal_overhead &&
              piece.offset <= sealed.size() - seal_overhead &&
              piece.length <= sealed.size() - seal_overhead - piece.offset,
          "keystream piece outside the sealed ciphertext");
  expects(plain_out.size() == piece.length,
          "plaintext buffer must match the piece length");
  if (piece.length == 0) {
    return false;
  }
  std::memcpy(nonce.data(), sealed.data(), nonce.size());
  std::memcpy(plain_out.data(),
              sealed.data() + seal_nonce_bytes + piece.offset, piece.length);
  return true;
}

/// Calls use(i, tag) with the SipHash tag of the first `mac_input` bytes
/// (nonce || ciphertext) of every record, the tags computed side by
/// side a bounded group at a time.
template <typename Record, typename Use>
void for_each_tag(const siphash_key& key, std::span<const Record> records,
                  std::size_t mac_input, Use use) {
  constexpr std::size_t group = 16;
  std::array<const std::uint8_t*, group> messages;
  std::array<std::uint64_t, group> tags;
  for (std::size_t first = 0; first < records.size(); first += group) {
    const std::size_t count = std::min(group, records.size() - first);
    for (std::size_t i = 0; i < count; ++i) {
      messages[i] = records[first + i].data();
    }
    siphash24_many(key,
                   std::span<const std::uint8_t* const>(messages).first(count),
                   mac_input, std::span<std::uint64_t>(tags).first(count));
    for (std::size_t i = 0; i < count; ++i) {
      use(first + i, tags[i]);
    }
  }
}

}  // namespace

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
  expects(tiled_bytes(pieces) == payload_size,
          "keystream pieces must cover the whole ciphertext");
  // One record: each run straight through the one-nonce kernel, no job
  // queue.
  const chacha_nonce nonce = take_nonce(record);
  const std::span<std::uint8_t> body =
      record.subspan(seal_nonce_bytes, payload_size);
  for_each_run(pieces, [&](std::size_t offset, std::size_t length,
                           std::uint64_t keystream_offset) {
    chacha20_xor_at(keys_.encryption_key, nonce, /*initial_counter=*/1,
                    keystream_offset, body.subspan(offset, length));
  });
  const std::uint64_t tag =
      siphash24(keys_.mac_key, record.first(seal_nonce_bytes + payload_size));
  std::memcpy(body.data() + payload_size, &tag, sizeof tag);
}

void block_sealer::seal_many(std::span<const std::span<std::uint8_t>> records,
                             std::span<const keystream_piece> pieces) {
  if (records.empty()) {
    return;
  }
  const std::size_t payload_size = tiled_bytes(pieces);
  for (const std::span<std::uint8_t> record : records) {
    expects(record.size() >= seal_overhead + payload_size,
            "sealed record shorter than its pieces");
  }
  if (records.size() == 1) {
    seal_in_place(records.front().first(seal_overhead + payload_size),
                  pieces);
    return;
  }

  // Ciphertext, in place over the plaintext, every record's keystream
  // blocks sharing the lanes. Pieces adjacent in both ciphertext and
  // keystream go in as one run.
  range_batch batch(*this);
  for (const std::span<std::uint8_t> record : records) {
    const chacha_nonce nonce = take_nonce(record);
    const std::span<std::uint8_t> body =
        record.subspan(seal_nonce_bytes, payload_size);
    for_each_run(pieces, [&](std::size_t offset, std::size_t length,
                             std::uint64_t keystream_offset) {
      batch.queue(nonce, keystream_offset, body.subspan(offset, length));
    });
  }
  batch.flush();

  // MAC over nonce || ciphertext, side by side.
  for_each_tag(keys_.mac_key, records, seal_nonce_bytes + payload_size,
               [&](std::size_t i, std::uint64_t tag) {
                 std::memcpy(records[i].data() + seal_nonce_bytes +
                                 payload_size,
                             &tag, sizeof tag);
               });
}

chacha_nonce block_sealer::take_nonce(std::span<std::uint8_t> record) {
  // Nonce: 8-byte counter || 4 zero bytes. Unique per seal per
  // instance.
  chacha_nonce nonce{};
  const std::uint64_t n = nonce_counter_++;
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(n >> (8 * i));
  }
  std::memcpy(record.data(), nonce.data(), nonce.size());
  return nonce;
}

void block_sealer::verify(std::span<const std::uint8_t> sealed) const {
  verify_many(std::span<const std::span<const std::uint8_t>>(&sealed, 1),
              sealed.size());
}

void block_sealer::verify_many(
    std::span<const std::span<const std::uint8_t>> records,
    std::size_t record_bytes) const {
  if (record_bytes < seal_overhead) {
    throw crypto_error("sealed buffer shorter than seal overhead");
  }
  const std::size_t payload_size = record_bytes - seal_overhead;
  for (const std::span<const std::uint8_t> record : records) {
    expects(record.size() >= record_bytes, "sealed buffer too small");
  }
  bool intact = true;
  for_each_tag(keys_.mac_key, records, seal_nonce_bytes + payload_size,
               [&](std::size_t i, std::uint64_t tag) {
                 std::uint64_t stored_tag = 0;
                 std::memcpy(&stored_tag,
                             records[i].data() + seal_nonce_bytes +
                                 payload_size,
                             sizeof stored_tag);
                 intact = intact && stored_tag == tag;
               });
  if (!intact) {
    throw crypto_error("MAC verification failed: block tampered or corrupt");
  }
}

void block_sealer::open_range(std::span<const std::uint8_t> sealed,
                              const keystream_piece& piece,
                              std::span<std::uint8_t> plain_out) const {
  chacha_nonce nonce;
  if (copy_piece(sealed, piece, plain_out, nonce)) {
    // Record keystream starts at ChaCha20 block 1.
    chacha20_xor_at(keys_.encryption_key, nonce, /*initial_counter=*/1,
                    piece.keystream_offset, plain_out);
  }
}

void block_sealer::open_pieces(std::span<const std::uint8_t> sealed,
                               std::span<const keystream_piece> pieces,
                               std::span<std::uint8_t> plain_out) const {
  expects(plain_out.size() == tiled_bytes(pieces),
          "plaintext buffer must match the pieces' length");
  for_each_run(pieces, [&](std::size_t offset, std::size_t length,
                           std::uint64_t keystream_offset) {
    open_range(sealed, keystream_piece{offset, length, keystream_offset},
               plain_out.subspan(offset, length));
  });
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

void block_sealer::range_batch::add(std::span<const std::uint8_t> sealed,
                                    const keystream_piece& piece,
                                    std::span<std::uint8_t> plain_out) {
  chacha_nonce nonce;
  if (copy_piece(sealed, piece, plain_out, nonce)) {
    queue(nonce, piece.keystream_offset, plain_out);
  }
}

void block_sealer::range_batch::queue(const chacha_nonce& nonce,
                                      std::uint64_t keystream_offset,
                                      std::span<std::uint8_t> data) {
  // A start inside a keystream block: that block's tail, on its own.
  if (const std::size_t skip = keystream_offset % 64;
      skip != 0 && !data.empty()) {
    const std::size_t head = std::min(data.size(), 64 - skip);
    chacha20_xor_at(queue_.key(), nonce, /*initial_counter=*/1,
                    keystream_offset, data.first(head));
    data = data.subspan(head);
    keystream_offset += head;
  }
  // Record keystream starts at ChaCha20 block 1.
  queue_.add(nonce, 1 + static_cast<std::uint32_t>(keystream_offset / 64),
             data);
}

}  // namespace horam::crypto
