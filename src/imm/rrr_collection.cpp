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
      "CompressedRRRCollection: varint overruns the encoded payload or "
      "exceeds 64 bits (truncated or corrupt block)");
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

std::size_t RRRCollection::footprint_bytes() const {
  std::size_t bytes = sets_.capacity() * sizeof(RRRSet);
  for (const RRRSet &set : sets_) bytes += set.capacity() * sizeof(vertex_t);
  return bytes;
}

std::size_t RRRCollection::total_associations() const {
  std::size_t total = 0;
  for (const RRRSet &set : sets_) total += set.size();
  return total;
}

// --- CompressedRRRCollection ------------------------------------------------

void CompressedRRRCollection::encode_record(std::vector<std::uint8_t> &out,
                                            std::span<const vertex_t> members) {
  auto put = [&out](std::uint64_t value) {
    while (value >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(value) | 0x80);
      value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
  };
  put(members.size());
  vertex_t previous = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    RIPPLES_DEBUG_ASSERT(i == 0 || members[i] > previous);
    put(i == 0 ? static_cast<std::uint64_t>(members[i])
               : static_cast<std::uint64_t>(members[i]) - previous);
    previous = members[i];
  }
}

void CompressedRRRCollection::append(std::span<const vertex_t> members) {
  // Worst case: 5 bytes per uint32 varint, plus the count header.
  check_growth("CompressedRRRCollection payload", payload_.size(),
               10 + 5 * members.size(), payload_.max_size());
  if (num_sets_ % kBlockSize == 0) {
    if (checksums_ && num_sets_ != 0) block_crcs_.push_back(tail_crc_);
    tail_crc_ = 0;
    block_offsets_.push_back(payload_.size());
  }
  const std::size_t start = payload_.size();
  encode_record(payload_, members);
  if (checksums_)
    tail_crc_ =
        crc_bytes(payload_.data() + start, payload_.size() - start, tail_crc_);
  ++num_sets_;
  total_associations_ += members.size();
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
                                           std::span<const RRRSet> sets) {
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
  for (const RRRSet &set : sets) encode_record(encoded, set);
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
  return static_cast<std::uint32_t>(read_varint());
}

void CompressedRRRCollection::Cursor::decode_members(
    std::uint32_t count, std::vector<vertex_t> &out) {
  out.clear();
  std::uint64_t value = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    value += read_varint();
    out.push_back(static_cast<vertex_t>(value));
  }
}

void CompressedRRRCollection::Cursor::skip_members(std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    while (p_ != end_ && (*p_ & 0x80) != 0) ++p_;
    if (p_ == end_) throw_truncated_block();
    ++p_;
  }
}

void CompressedRRRCollection::decode_set(std::size_t j,
                                         std::vector<vertex_t> &out) const {
  RIPPLES_DEBUG_ASSERT(j < num_sets_);
  Cursor cursor(*this);
  cursor.p_ = payload_.data() + block_offsets_[j / kBlockSize];
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
