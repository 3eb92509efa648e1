/// \file rrr_collection.hpp
/// \brief The two RRR-set storage representations compared in Table 2.
///
/// The paper's key memory optimization (Section 3.1): previous
/// implementations store the sample/vertex incidence "in two directions
/// using the notion of a hypergraph ... each association between a sample
/// and a vertex is stored twice", which speeds up seed selection but can
/// exhaust memory.  IMMOPT stores only one direction — each sample as a
/// sorted vertex list — and compensates during selection with binary search
/// over the sorted lists.
///
///  * RRRCollection       — the paper's compact representation (IMMOPT).
///  * HypergraphCollection — the dual-direction baseline (Tang et al.'s IMM),
///    built here to reproduce Table 2's time and memory comparison.
///
/// Record kinds (DESIGN.md §4): a collection built over n vertices stores a
/// set of at least W = ⌈n/32⌉ members as an n-bit bitmap of exactly W
/// 32-bit words instead of a list, the size at which the bitmap is no
/// larger (HBMax, arXiv 2208.00613, codes each set by whichever is
/// smaller).  Inside RRRCollection a record of exactly W words is a bitmap
/// and every list record is shorter, so the kind costs no byte.  A
/// default-constructed collection has no n and keeps every record a list,
/// which is what the public samplers and selection entry points over plain
/// lists see.
///
/// Scrubbing (DESIGN.md §14): the compressed arena optionally carries a
/// CRC-32 per block of its contiguous payload, maintained incrementally on
/// append and verified before the selection kernels consume the bytes.
/// Because every stored sample is a pure function of its RNG coordinates, a
/// damaged block is *repairable*: the owner regenerates the block's sets
/// bit-identically and re-encodes them in place.  Checksums are opt-in
/// (enable_checksums) so the default path pays nothing.
#ifndef RIPPLES_IMM_RRR_COLLECTION_HPP
#define RIPPLES_IMM_RRR_COLLECTION_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "imm/rrr.hpp"

namespace ripples {

/// Words of an n-bit bitmap record, W = ⌈n/32⌉: vertex v is bit v % 32 of
/// word v / 32, and the bits past n stay zero.
[[nodiscard]] constexpr std::size_t bitmap_words(std::uint64_t num_vertices) {
  return static_cast<std::size_t>((num_vertices + 31) / 32);
}

/// Read view of one stored set of either kind: a sorted member list, or a
/// bitmap of W words.  Bitmap words are loaded through memcpy, so a record
/// inside the byte-packed compressed arena needs no alignment.  Two words,
/// so a kernel passes a view in registers.
class RRRRecord {
public:
  [[nodiscard]] static RRRRecord list(std::span<const vertex_t> members) {
    return RRRRecord(members.data(), members.size());
  }
  [[nodiscard]] static RRRRecord bitmap(const void *words,
                                        std::size_t num_words) {
    return RRRRecord(words, num_words | kBitmap);
  }

  [[nodiscard]] bool is_bitmap() const { return (size_ & kBitmap) != 0; }
  /// The members of a list record.
  [[nodiscard]] std::span<const vertex_t> members() const {
    return {static_cast<const vertex_t *>(data_), size_};
  }
  [[nodiscard]] std::size_t num_words() const { return size_ & ~kBitmap; }
  [[nodiscard]] std::uint32_t word(std::size_t i) const {
    std::uint32_t w;
    std::memcpy(&w, bytes() + i * sizeof(w), sizeof(w));
    return w;
  }

  /// Binary search in a list, one bit test in a bitmap.  The bit test
  /// runs out of line, so a list search keeps the registers of the
  /// kernels' scan loops to itself.
  [[nodiscard]] bool contains(vertex_t v) const {
    if (is_bitmap()) return bitmap_contains(bytes(), v);
    const std::span<const vertex_t> list = members();
    return std::binary_search(list.begin(), list.end(), v);
  }

  /// Member count: the list length, or the bitmap's popcount.
  [[nodiscard]] std::size_t size() const;

  /// Every member, ascending.
  template <typename Visit> void for_each_member(Visit &&visit) const {
    if (!is_bitmap()) {
      for (vertex_t v : members()) visit(v);
      return;
    }
    const std::size_t words = num_words();
    for (std::size_t w = 0; w < words; ++w) visit_bits(w, word(w), visit);
  }

  /// Every member in [lo, hi), ascending: a list binary-searches to lo, a
  /// bitmap visits the set bits of the words covering [lo, hi).
  template <typename Visit>
  void for_each_member(vertex_t lo, vertex_t hi, Visit &&visit) const {
    if (!is_bitmap()) {
      const std::span<const vertex_t> list = members();
      for (auto it = std::lower_bound(list.begin(), list.end(), lo);
           it != list.end() && *it < hi; ++it)
        visit(*it);
      return;
    }
    if (lo >= hi) return;
    const std::size_t first = lo / 32;
    const std::size_t last = (static_cast<std::size_t>(hi) - 1) / 32;
    for (std::size_t w = first; w <= last; ++w) {
      std::uint32_t bits = word(w);
      if (w == first) bits &= ~std::uint32_t{0} << (lo % 32);
      if (w == last && hi % 32 != 0)
        bits &= (std::uint32_t{1} << (hi % 32)) - 1;
      visit_bits(w, bits, visit);
    }
  }

  /// counters[v] += 1 (kDecrement: -= 1) for every member v in [lo, hi),
  /// the counting and retirement step of the selection kernels; the
  /// caller owns counters[lo, hi), and nothing outside it is touched.  A
  /// list binary-searches to lo; a bitmap runs out of line, so inlining
  /// this leaves the caller's loop a plain list loop plus one test.
  template <bool kDecrement>
  void adjust_counters(std::uint32_t *counters, vertex_t lo,
                       vertex_t hi) const {
    if (is_bitmap()) {
      // By value: passing `this` would keep the view in memory in the
      // callers' loops.
      adjust_bitmap_counters<kDecrement>(bytes(), num_words(), counters, lo,
                                         hi);
      return;
    }
    const std::span<const vertex_t> list = members();
    auto it = std::lower_bound(list.begin(), list.end(), lo);
    for (; it != list.end() && *it < hi; ++it) {
      if constexpr (kDecrement) {
        RIPPLES_DEBUG_ASSERT(counters[*it] > 0);
        --counters[*it];
      } else {
        ++counters[*it];
      }
    }
  }

private:
  /// The top bit of size_ marks a bitmap, whose word count is the rest.
  static constexpr std::size_t kBitmap = ~(~std::size_t{0} >> 1);

  RRRRecord(const void *data, std::size_t size) : data_(data), size_(size) {}
  [[nodiscard]] const unsigned char *bytes() const {
    return static_cast<const unsigned char *>(data_);
  }

  [[nodiscard]] static bool bitmap_contains(const unsigned char *bitmap,
                                            vertex_t v);

  /// The bitmap case of adjust_counters: a word wholly inside [lo, hi)
  /// holding at least kDenseWord members updates its 32 counters
  /// branch-free; other words visit their set bits.
  template <bool kDecrement>
  static void adjust_bitmap_counters(const unsigned char *bitmap,
                                     std::size_t num_words,
                                     std::uint32_t *counters, vertex_t lo,
                                     vertex_t hi);

  /// Members per word from which the branch-free 32-counter update beats
  /// visiting the set bits one by one.
  static constexpr int kDenseWord = 8;

  template <typename Visit>
  static void visit_bits(std::size_t w, std::uint32_t bits, Visit &visit) {
    const auto base = static_cast<vertex_t>(w * 32);
    while (bits != 0) {
      visit(base + static_cast<vertex_t>(__builtin_ctz(bits)));
      bits &= bits - 1;
    }
  }

  const void *data_;
  std::size_t size_;
};

/// The view of plain-storage record \p set in a collection whose bitmap
/// records have \p words words (0: a list-only collection).
[[nodiscard]] inline RRRRecord plain_record(const RRRSet &set,
                                            std::size_t words) {
  return words != 0 && set.size() == words
             ? RRRRecord::bitmap(set.data(), words)
             : RRRRecord::list(set);
}

/// Compact storage: samples only, each a sorted vertex list or, in a
/// collection built over n vertices, an n-bit bitmap once it has at least
/// W = ⌈n/32⌉ members.
class RRRCollection {
public:
  /// A list-only collection.
  RRRCollection() = default;
  /// A hybrid collection over \p num_vertices vertices.
  explicit RRRCollection(vertex_t num_vertices)
      : bitmap_words_(ripples::bitmap_words(num_vertices)) {}

  [[nodiscard]] std::size_t size() const { return sets_.size(); }
  [[nodiscard]] const std::vector<RRRSet> &sets() const { return sets_; }
  [[nodiscard]] std::vector<RRRSet> &mutable_sets() { return sets_; }

  /// W, the word count of a bitmap record; 0 in a list-only collection.
  [[nodiscard]] std::size_t bitmap_words() const { return bitmap_words_; }
  [[nodiscard]] bool is_bitmap(const RRRSet &record) const {
    return bitmap_words_ != 0 && record.size() == bitmap_words_;
  }
  [[nodiscard]] RRRRecord record(std::size_t j) const {
    return plain_record(sets_[j], bitmap_words_);
  }

  /// Rewrites the sorted list \p set in place as its bitmap record when it
  /// has at least W members (a no-op on shorter lists), freeing the list.
  /// Every sampler writing into a hybrid collection passes each set
  /// through here or emits the bitmap itself (the fused IC kernel).
  void seal(RRRSet &set) const {
    if (bitmap_words_ != 0 && set.size() >= bitmap_words_)
      set = to_bitmap(set, bitmap_words_);
  }

  /// Appends the sorted list \p set (unique members), sealed.
  void add(RRRSet &&set) {
    seal(set);
    sets_.push_back(std::move(set));
  }
  /// Appends \p count empty slots and returns the index of the first, so a
  /// parallel sampler can fill disjoint slots without synchronization.
  /// Throws std::length_error with the offending sizes if the request
  /// cannot be represented — the callers grow before entering their
  /// parallel fill regions, so an absurd theta surfaces here as one
  /// catchable diagnostic instead of a bad_alloc on a worker thread.
  std::size_t grow(std::size_t count);

  /// Exact heap bytes held by the representation (vector headers + payload
  /// capacity, W·4 bytes per bitmap record) — the quantity Table 2 reports
  /// per implementation.
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Total number of (sample, vertex) associations.
  [[nodiscard]] std::size_t total_associations() const;

  void clear() { sets_.clear(); }

  /// The \p words-word bitmap record of the sorted list \p members.
  [[nodiscard]] static RRRSet to_bitmap(std::span<const vertex_t> members,
                                        std::size_t words);

private:
  std::vector<RRRSet> sets_;
  std::size_t bitmap_words_ = 0;
};

/// Delta+varint compressed arena (DESIGN.md §12): each sample is one record
/// `[varint member_count][varint first][varint deltas...]` — members are
/// sorted and unique, so consecutive differences are small positive integers
/// that LEB128 encodes in 1-2 bytes on the paper's graphs (HBMax, arXiv
/// 2208.00613, and Wang et al., arXiv 2311.07554, report 3-10x on exactly
/// this structure for list records; a bitmap record is already dense).
/// An arena built over n vertices also has a bitmap record kind,
/// `[varint n + 1 + member_count][W words]`, used whenever it is shorter
/// than the set's delta record, so compressing never enlarges a set; list
/// headers never exceed n, so the list format is unchanged.  Selection
/// decodes on read: Alg. 4's count pass scans the collection front to
/// back and records each set's byte offset as it goes, and its rounds
/// re-read a set at that offset only when the set's membership signature
/// holds the round's seed, so the index stores one byte offset per
/// kBlockSize sets (amortized ~0 bytes/set) instead of one per set.
/// The budget governor switches RRR storage to this representation when
/// the uncompressed arena would exceed the budget.
class CompressedRRRCollection {
public:
  /// Sets per index block; random access decodes at most this many headers.
  static constexpr std::size_t kBlockSize = 256;

  /// A list-only arena.
  CompressedRRRCollection() = default;
  /// An arena over \p num_vertices vertices, with bitmap records.  Bitmap
  /// headers reach 2n + 1, so past n = 2^31 - 1 (and at n = 0) the arena
  /// stays list-only.
  explicit CompressedRRRCollection(vertex_t num_vertices);

  [[nodiscard]] std::size_t size() const { return num_sets_; }
  [[nodiscard]] std::size_t total_associations() const {
    return total_associations_;
  }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return payload_.capacity() * sizeof(std::uint8_t) +
           block_offsets_.capacity() * sizeof(std::uint64_t) +
           block_crcs_.capacity() * sizeof(std::uint32_t);
  }

  /// Appends one sample (members sorted ascending, unique).  Throws
  /// std::length_error when the encoded payload would no longer be
  /// representable.
  void append(std::span<const vertex_t> members) {
    append(RRRRecord::list(members));
  }
  /// Appends one sample of either kind; its encoding depends only on its
  /// members, never on the kind it arrives as.
  void append(const RRRRecord &record);

  /// Decodes sample \p j into \p out (cleared first) as a sorted list.
  /// Block-indexed: seeks to the enclosing block, then skips at most
  /// kBlockSize - 1 records.  Throws std::out_of_range when j >= size().
  void decode_set(std::size_t j, std::vector<vertex_t> &out) const;

  /// Releases growth slack after the collection stops growing.
  void shrink_to_fit() {
    payload_.shrink_to_fit();
    block_offsets_.shrink_to_fit();
    block_crcs_.shrink_to_fit();
  }

  void clear() {
    payload_.clear();
    block_offsets_.clear();
    block_crcs_.clear();
    tail_crc_ = 0;
    num_sets_ = 0;
    total_associations_ = 0;
  }

  /// Turns on per-block checksums (idempotent).  Already-encoded payload is
  /// hashed on the spot; subsequent appends maintain a running CRC of the
  /// open block, finalized when the block fills.  Off by default so the
  /// budget-without-scrub path pays nothing.
  void enable_checksums();
  [[nodiscard]] bool checksums_enabled() const { return checksums_; }

  [[nodiscard]] std::size_t num_blocks() const {
    return block_offsets_.size();
  }

  /// The half-open set-index range [first, last) encoded by block \p b.
  [[nodiscard]] std::pair<std::size_t, std::size_t>
  block_set_range(std::size_t b) const {
    return {b * kBlockSize, std::min(num_sets_, (b + 1) * kBlockSize)};
  }

  /// Recomputes every block CRC and returns the indices of blocks whose
  /// encoded bytes no longer match.  Empty when checksums are disabled.
  [[nodiscard]] std::vector<std::size_t> verify_blocks() const;

  /// Repair: re-encodes block \p b from \p sets (the block's samples in
  /// set-index order, regenerated bit-identically from their RNG
  /// coordinates, as records of either kind), overwrites the damaged bytes
  /// in place, and refreshes the block CRC.  Throws std::runtime_error when
  /// the re-encoding does not match the block's byte length — regeneration
  /// was not bit-identical, so the damage is not repairable and must
  /// escalate.
  void repair_block(std::size_t b, std::span<const RRRRecord> sets);
  /// The same over plain lists.
  void repair_block(std::size_t b, std::span<const RRRSet> sets);

  /// Deterministic fault-injection surface (the storage-level analogue of
  /// mpsim's kind=corrupt): flips one payload bit, leaving the stored block
  /// CRC describing the clean bytes.
  void flip_payload_bit(std::size_t bit);

  /// Sequential decode-on-read reader.  next_header() positions at a
  /// record's members and returns its member count; the caller then either
  /// reads the record (read_record, decode_members) or skips it
  /// (skip_members: a continuation-bit scan or one bitmap stride only).
  class Cursor {
  public:
    explicit Cursor(const CompressedRRRCollection &collection)
        : begin_(collection.payload_.data()), p_(begin_),
          end_(collection.payload_.data() + collection.payload_.size()),
          bitmap_base_(collection.bitmap_base_),
          bitmap_bytes_(collection.bitmap_words_ * sizeof(std::uint32_t)) {}

    [[nodiscard]] bool at_end() const { return p_ == end_; }
    /// Byte offset of the next record (before next_header()), the address
    /// cursor_at() returns to.
    [[nodiscard]] std::size_t offset() const {
      return static_cast<std::size_t>(p_ - begin_);
    }
    /// Throws the truncated-or-corrupt diagnostic on a header above
    /// UINT32_MAX, on a member count above n, and on a bitmap record that
    /// runs past the payload.
    [[nodiscard]] std::uint32_t next_header();
    /// True when the current record is a bitmap.
    [[nodiscard]] bool at_bitmap() const { return bitmap_; }
    /// The current record as a view: a bitmap in place, a list decoded
    /// into \p scratch.  Advances past it.
    [[nodiscard]] RRRRecord read_record(std::uint32_t count,
                                        std::vector<vertex_t> &scratch);
    /// Decodes the current record's \p count members into \p out (cleared
    /// first; members come out sorted whatever the record kind).
    void decode_members(std::uint32_t count, std::vector<vertex_t> &out);
    /// Skips the current record's \p count members without decoding.
    void skip_members(std::uint32_t count);

  private:
    friend class CompressedRRRCollection;
    [[nodiscard]] std::uint64_t read_varint();
    const std::uint8_t *begin_;
    const std::uint8_t *p_;
    const std::uint8_t *end_;
    std::uint64_t bitmap_base_;
    std::size_t bitmap_bytes_;
    bool bitmap_ = false;
  };

  [[nodiscard]] Cursor cursor() const { return Cursor(*this); }
  /// A cursor at the record starting at byte \p offset, one that
  /// Cursor::offset() reported.
  [[nodiscard]] Cursor cursor_at(std::size_t offset) const {
    Cursor cursor(*this);
    cursor.p_ += offset;
    return cursor;
  }

private:
  /// Encodes one record — the shorter of the delta list and, in an arena
  /// with bitmap records, the bitmap — into \p out.  Shared by append and
  /// repair_block so a repaired block is byte-for-byte what append would
  /// have produced.  Returns the record's member count.
  std::size_t encode_record(std::vector<std::uint8_t> &out,
                            const RRRRecord &record) const;
  /// Byte range [begin, end) of block \p b in payload_.
  [[nodiscard]] std::pair<std::size_t, std::size_t>
  block_byte_range(std::size_t b) const {
    return {block_offsets_[b], b + 1 < block_offsets_.size()
                                   ? block_offsets_[b + 1]
                                   : payload_.size()};
  }
  [[nodiscard]] std::uint32_t stored_block_crc(std::size_t b) const {
    return b < block_crcs_.size() ? block_crcs_[b] : tail_crc_;
  }

  std::vector<std::uint8_t> payload_;
  std::vector<std::uint64_t> block_offsets_; // byte offset of set kBlockSize*i
  std::vector<std::uint32_t> block_crcs_;    // finalized (closed) blocks
  std::uint32_t tail_crc_ = 0;               // running CRC of the open block
  std::size_t num_sets_ = 0;
  std::size_t total_associations_ = 0;
  /// n + 1, the smallest bitmap header, and W; both 0 in a list-only arena.
  std::uint64_t bitmap_base_ = 0;
  std::size_t bitmap_words_ = 0;
  bool checksums_ = false;
};

/// Dual-direction storage: samples plus, per vertex, the ids of the samples
/// containing it.  ~2x the associations of RRRCollection, as the paper
/// describes for prior implementations.
class HypergraphCollection {
public:
  explicit HypergraphCollection(vertex_t num_vertices)
      : incidence_(num_vertices) {}

  [[nodiscard]] std::size_t size() const { return sets_.size(); }
  [[nodiscard]] const std::vector<RRRSet> &sets() const { return sets_; }
  [[nodiscard]] const std::vector<std::uint32_t> &
  samples_containing(vertex_t v) const {
    return incidence_[v];
  }

  /// Adds a sample and indexes every member vertex back to it.  Throws
  /// std::length_error past 2^32 samples: incidence ids are stored as
  /// uint32_t (the representation under comparison), so a larger collection
  /// would silently alias sample ids.
  void add(RRRSet &&set);

  [[nodiscard]] std::size_t footprint_bytes() const;
  [[nodiscard]] std::size_t total_associations() const;

private:
  std::vector<RRRSet> sets_;
  std::vector<std::vector<std::uint32_t>> incidence_;
};

} // namespace ripples

#endif // RIPPLES_IMM_RRR_COLLECTION_HPP
