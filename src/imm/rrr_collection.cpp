#include "imm/rrr_collection.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/checkpoint.hpp"

namespace ripples {

namespace {

[[nodiscard]] std::uint32_t crc_bytes(const void *data, std::size_t bytes,
                                      std::uint32_t seed = 0) {
  return checkpoint::crc32(
      {static_cast<const std::uint8_t *>(data), bytes}, seed);
}

[[noreturn]] void throw_truncated_block() {
  throw std::runtime_error(
      "CompressedRRRCollection: a record overruns the encoded payload or "
      "holds an out-of-range header (truncated or corrupt block)");
}

/// LEB128 width of \p value.
[[nodiscard]] std::size_t varint_bytes(std::uint64_t value) {
  std::size_t bytes = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++bytes;
  }
  return bytes;
}

void put_varint(std::vector<std::uint8_t> &out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

} // namespace

namespace {

/// Shared growth screen: the collections are grown from theta-derived
/// totals, so a corrupted or absurd request must surface as a catchable
/// diagnostic naming the sizes, not as a bad_alloc (or a silent size_t
/// wrap) deep inside a parallel sampling region.
void check_growth(const char *what, std::size_t current, std::size_t extra,
                  std::size_t limit) {
  if (extra > limit - current)
    throw std::length_error(std::string(what) + " growth overflows: " +
                            std::to_string(current) + " + " +
                            std::to_string(extra) + " exceeds " +
                            std::to_string(limit));
}

} // namespace

std::size_t RRRCollection::grow(std::size_t count) {
  std::size_t first = sets_.size();
  // max_size is the allocator's theoretical ceiling; on overflow of
  // first + count it also catches the size_t wrap.
  check_growth("RRRCollection", first, count, sets_.max_size());
  sets_.resize(first + count);
  return first;
}

std::size_t RRRRecord::size() const {
  if (!is_bitmap()) return size_;
  std::size_t count = 0;
  for (std::size_t w = 0; w < num_words(); ++w)
    count += static_cast<std::size_t>(__builtin_popcount(word(w)));
  return count;
}

namespace {

/// c[b] ±= bit b of \p bits for b in [0, 32), four counters per vector.
template <bool kDecrement>
void adjust_word(std::uint32_t *c, std::uint32_t bits) {
  using u32x4 = std::uint32_t __attribute__((vector_size(16)));
  const u32x4 word = {bits, bits, bits, bits};
  u32x4 probe = {1, 2, 4, 8};
  for (unsigned q = 0; q < 8; ++q, probe <<= 4) {
    // All ones where the bit is set: subtracting it adds one.
    const auto hit = reinterpret_cast<u32x4>((word & probe) != 0);
    u32x4 counts;
    std::memcpy(&counts, c + 4 * q, sizeof(counts));
    if constexpr (kDecrement)
      counts += hit;
    else
      counts -= hit;
    std::memcpy(c + 4 * q, &counts, sizeof(counts));
  }
}

} // namespace

bool RRRRecord::bitmap_contains(const unsigned char *bitmap, vertex_t v) {
  std::uint32_t word;
  std::memcpy(&word, bitmap + (v / 32) * sizeof(word), sizeof(word));
  return (word >> (v % 32)) & 1;
}

template <bool kDecrement>
void RRRRecord::adjust_bitmap_counters(const unsigned char *bitmap,
                                       std::size_t num_words,
                                       std::uint32_t *counters, vertex_t lo,
                                       vertex_t hi) {
  const RRRRecord record = RRRRecord::bitmap(bitmap, num_words);
  auto one = [counters](vertex_t v) {
    if constexpr (kDecrement) {
      RIPPLES_DEBUG_ASSERT(counters[v] > 0);
      --counters[v];
    } else {
      ++counters[v];
    }
  };
  // The members in [from, to), bit by bit.
  auto walk = [&](vertex_t from, vertex_t to) {
    record.for_each_member(from, to, one);
  };
  const std::size_t first = (static_cast<std::size_t>(lo) + 31) / 32;
  const std::size_t last = hi / 32; // words [first, last) lie in [lo, hi)
  if (lo >= hi || first >= last) {
    walk(lo, hi);
    return;
  }
  walk(lo, static_cast<vertex_t>(first * 32));
  for (std::size_t w = first; w < last; ++w) {
    const std::uint32_t bits = record.word(w);
    if (__builtin_popcount(bits) >= kDenseWord)
      adjust_word<kDecrement>(counters + w * 32, bits);
    else
      visit_bits(w, bits, one);
  }
  walk(static_cast<vertex_t>(last * 32), hi);
}

template void RRRRecord::adjust_bitmap_counters<false>(const unsigned char *,
                                                        std::size_t,
                                                        std::uint32_t *,
                                                        vertex_t, vertex_t);
template void RRRRecord::adjust_bitmap_counters<true>(const unsigned char *,
                                                       std::size_t,
                                                       std::uint32_t *,
                                                       vertex_t, vertex_t);

RRRSet RRRCollection::to_bitmap(std::span<const vertex_t> members,
                                std::size_t words) {
  RRRSet bitmap(words, 0);
  for (vertex_t v : members) {
    RIPPLES_DEBUG_ASSERT(v / 32 < words);
    bitmap[v / 32] |= vertex_t{1} << (v % 32);
  }
  return bitmap;
}

std::size_t RRRCollection::footprint_bytes() const {
  std::size_t bytes = sets_.capacity() * sizeof(RRRSet);
  for (const RRRSet &set : sets_) bytes += set.capacity() * sizeof(vertex_t);
  return bytes;
}

std::size_t RRRCollection::total_associations() const {
  std::size_t total = 0;
  for (const RRRSet &set : sets_)
    total += plain_record(set, bitmap_words_).size();
  return total;
}

// --- CompressedRRRCollection ------------------------------------------------

CompressedRRRCollection::CompressedRRRCollection(vertex_t num_vertices) {
  if (num_vertices == 0 ||
      num_vertices > std::numeric_limits<std::uint32_t>::max() / 2)
    return;
  bitmap_base_ = std::uint64_t{num_vertices} + 1;
  bitmap_words_ = bitmap_words(num_vertices);
}

std::size_t
CompressedRRRCollection::encode_record(std::vector<std::uint8_t> &out,
                                       const RRRRecord &record) const {
  // One pass sizes the delta list; the bitmap wins only when strictly
  // shorter, so a set never grows by being compressed.
  std::size_t count = 0;
  std::size_t list_bytes = 0;
  vertex_t previous = 0;
  record.for_each_member([&](vertex_t v) {
    RIPPLES_DEBUG_ASSERT(count == 0 || v > previous);
    list_bytes += varint_bytes(count == 0 ? v : v - previous);
    previous = v;
    ++count;
  });
  list_bytes += varint_bytes(count);
  const std::size_t bitmap_bytes =
      bitmap_base_ == 0 ? 0
                        : varint_bytes(bitmap_base_ + count) +
                              bitmap_words_ * sizeof(std::uint32_t);
  if (bitmap_base_ != 0 && bitmap_bytes < list_bytes) {
    put_varint(out, bitmap_base_ + count);
    const std::size_t at = out.size();
    out.resize(at + bitmap_words_ * sizeof(std::uint32_t), 0);
    if (record.is_bitmap()) {
      RIPPLES_ASSERT(record.num_words() == bitmap_words_);
      for (std::size_t w = 0; w < bitmap_words_; ++w) {
        const std::uint32_t word = record.word(w);
        std::memcpy(out.data() + at + w * sizeof(word), &word, sizeof(word));
      }
    } else {
      std::size_t w = 0;
      std::uint32_t word = 0;
      auto flush = [&] {
        std::memcpy(out.data() + at + w * sizeof(word), &word, sizeof(word));
      };
      record.for_each_member([&](vertex_t v) {
        if (v / 32 != w) {
          flush();
          w = v / 32;
          word = 0;
        }
        word |= std::uint32_t{1} << (v % 32);
      });
      flush();
    }
    return count;
  }
  put_varint(out, count);
  std::size_t i = 0;
  previous = 0;
  record.for_each_member([&](vertex_t v) {
    put_varint(out, i++ == 0 ? std::uint64_t{v}
                             : static_cast<std::uint64_t>(v) - previous);
    previous = v;
  });
  return count;
}

void CompressedRRRCollection::append(const RRRRecord &record) {
  // Worst case: the count header plus 5 bytes per member varint; in an
  // arena with bitmap records, never more than the bitmap and its header.
  std::size_t bound = 5 + 5 * (record.is_bitmap() ? 32 * record.num_words()
                                                  : record.members().size());
  if (bitmap_words_ != 0)
    bound = std::min(bound, 5 + bitmap_words_ * sizeof(std::uint32_t));
  check_growth("CompressedRRRCollection payload", payload_.size(), bound,
               payload_.max_size());
  // Grow by an eighth rather than doubling: the arena is the representation
  // of last resort under a memory budget, and doubling would let its slack
  // outweigh what compression saves on bitmap records.
  if (payload_.size() + bound > payload_.capacity())
    payload_.reserve(std::max(payload_.size() + bound,
                              payload_.capacity() + payload_.capacity() / 8));
  if (num_sets_ % kBlockSize == 0) {
    if (checksums_ && num_sets_ != 0) block_crcs_.push_back(tail_crc_);
    tail_crc_ = 0;
    block_offsets_.push_back(payload_.size());
  }
  const std::size_t start = payload_.size();
  const std::size_t count = encode_record(payload_, record);
  if (checksums_)
    tail_crc_ =
        crc_bytes(payload_.data() + start, payload_.size() - start, tail_crc_);
  ++num_sets_;
  total_associations_ += count;
}

void CompressedRRRCollection::enable_checksums() {
  if (checksums_) return;
  checksums_ = true;
  // Catch up on anything encoded before the switch: one CRC per closed
  // block, the running tail for the open one.
  block_crcs_.clear();
  tail_crc_ = 0;
  for (std::size_t b = 0; b < num_blocks(); ++b) {
    const auto [begin, end] = block_byte_range(b);
    const std::uint32_t crc = crc_bytes(payload_.data() + begin, end - begin);
    if (b + 1 < num_blocks())
      block_crcs_.push_back(crc);
    else
      tail_crc_ = crc;
  }
}

std::vector<std::size_t> CompressedRRRCollection::verify_blocks() const {
  std::vector<std::size_t> corrupt;
  if (!checksums_) return corrupt;
  for (std::size_t b = 0; b < num_blocks(); ++b) {
    const auto [begin, end] = block_byte_range(b);
    if (crc_bytes(payload_.data() + begin, end - begin) != stored_block_crc(b))
      corrupt.push_back(b);
  }
  return corrupt;
}

void CompressedRRRCollection::repair_block(std::size_t b,
                                           std::span<const RRRRecord> sets) {
  RIPPLES_ASSERT(b < num_blocks());
  const auto [set_first, set_last] = block_set_range(b);
  if (sets.size() != set_last - set_first)
    throw std::runtime_error(
        "CompressedRRRCollection: repair_block(" + std::to_string(b) +
        ") got " + std::to_string(sets.size()) + " sets for a block of " +
        std::to_string(set_last - set_first));
  const auto [begin, end] = block_byte_range(b);
  std::vector<std::uint8_t> encoded;
  encoded.reserve(end - begin);
  for (const RRRRecord &set : sets) encode_record(encoded, set);
  if (encoded.size() != end - begin)
    throw std::runtime_error(
        "CompressedRRRCollection: regenerated block " + std::to_string(b) +
        " re-encodes to " + std::to_string(encoded.size()) +
        " bytes where the stored block holds " + std::to_string(end - begin) +
        " — regeneration was not bit-identical, damage is unrepairable");
  std::memcpy(payload_.data() + begin, encoded.data(), encoded.size());
  const std::uint32_t crc = crc_bytes(payload_.data() + begin, end - begin);
  if (b < block_crcs_.size())
    block_crcs_[b] = crc;
  else
    tail_crc_ = crc;
}

void CompressedRRRCollection::repair_block(std::size_t b,
                                           std::span<const RRRSet> sets) {
  std::vector<RRRRecord> records;
  records.reserve(sets.size());
  for (const RRRSet &set : sets) records.push_back(RRRRecord::list(set));
  repair_block(b, records);
}

void CompressedRRRCollection::flip_payload_bit(std::size_t bit) {
  RIPPLES_ASSERT(!payload_.empty());
  bit %= payload_.size() * 8;
  payload_[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

std::uint64_t CompressedRRRCollection::Cursor::read_varint() {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (;;) {
    // Bounds are enforced in release builds too: a truncated or corrupt
    // block must surface as a diagnosed throw, never as a read past the
    // arena (the shift guard catches in-bounds bytes whose continuation
    // bits never terminate).
    if (p_ == end_) throw_truncated_block();
    const std::uint8_t byte = *p_++;
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift >= 64) throw_truncated_block();
  }
}

std::uint32_t CompressedRRRCollection::Cursor::next_header() {
  const std::uint64_t header = read_varint();
  if (header > std::numeric_limits<std::uint32_t>::max())
    throw_truncated_block();
  bitmap_ = bitmap_base_ != 0 && header >= bitmap_base_;
  if (!bitmap_) return static_cast<std::uint32_t>(header);
  // A bitmap holds at most n = bitmap_base_ - 1 members, and its words
  // must lie inside the payload.
  const std::uint64_t count = header - bitmap_base_;
  if (count >= bitmap_base_ ||
      static_cast<std::size_t>(end_ - p_) < bitmap_bytes_)
    throw_truncated_block();
  return static_cast<std::uint32_t>(count);
}

RRRRecord
CompressedRRRCollection::Cursor::read_record(std::uint32_t count,
                                             std::vector<vertex_t> &scratch) {
  if (!bitmap_) {
    decode_members(count, scratch);
    return RRRRecord::list(scratch);
  }
  const RRRRecord record =
      RRRRecord::bitmap(p_, bitmap_bytes_ / sizeof(std::uint32_t));
  p_ += bitmap_bytes_;
  return record;
}

void CompressedRRRCollection::Cursor::decode_members(
    std::uint32_t count, std::vector<vertex_t> &out) {
  out.clear();
  if (bitmap_) {
    out.reserve(count);
    RRRRecord::bitmap(p_, bitmap_bytes_ / sizeof(std::uint32_t))
        .for_each_member([&out](vertex_t v) { out.push_back(v); });
    p_ += bitmap_bytes_;
    return;
  }
  std::uint64_t value = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    value += read_varint();
    out.push_back(static_cast<vertex_t>(value));
  }
}

void CompressedRRRCollection::Cursor::skip_members(std::uint32_t count) {
  if (bitmap_) {
    p_ += bitmap_bytes_;
    return;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    while (p_ != end_ && (*p_ & 0x80) != 0) ++p_;
    if (p_ == end_) throw_truncated_block();
    ++p_;
  }
}

void CompressedRRRCollection::decode_set(std::size_t j,
                                         std::vector<vertex_t> &out) const {
  if (j >= num_sets_)
    throw std::out_of_range("CompressedRRRCollection::decode_set(" +
                            std::to_string(j) + ") on a collection of " +
                            std::to_string(num_sets_) + " sets");
  Cursor cursor = cursor_at(block_offsets_[j / kBlockSize]);
  for (std::size_t skip = j % kBlockSize; skip > 0; --skip)
    cursor.skip_members(cursor.next_header());
  cursor.decode_members(cursor.next_header(), out);
}

void HypergraphCollection::add(RRRSet &&set) {
  check_growth("HypergraphCollection sample ids", sets_.size(), 1,
               std::size_t{std::numeric_limits<std::uint32_t>::max()});
  auto sample_id = static_cast<std::uint32_t>(sets_.size());
  for (vertex_t v : set) incidence_[v].push_back(sample_id);
  sets_.push_back(std::move(set));
}

std::size_t HypergraphCollection::footprint_bytes() const {
  std::size_t bytes = sets_.capacity() * sizeof(RRRSet);
  for (const RRRSet &set : sets_) bytes += set.capacity() * sizeof(vertex_t);
  bytes += incidence_.capacity() * sizeof(std::vector<std::uint32_t>);
  for (const auto &list : incidence_)
    bytes += list.capacity() * sizeof(std::uint32_t);
  return bytes;
}

std::size_t HypergraphCollection::total_associations() const {
  std::size_t total = 0;
  for (const RRRSet &set : sets_) total += set.size();
  for (const auto &list : incidence_) total += list.size();
  return total;
}

} // namespace ripples
