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
#include <span>
#include <utility>
#include <vector>

#include "imm/rrr.hpp"

namespace ripples {

/// Compact storage: samples only, each a sorted vertex list.
class RRRCollection {
public:
  [[nodiscard]] std::size_t size() const { return sets_.size(); }
  [[nodiscard]] const std::vector<RRRSet> &sets() const { return sets_; }
  [[nodiscard]] std::vector<RRRSet> &mutable_sets() { return sets_; }

  void add(RRRSet &&set) { sets_.push_back(std::move(set)); }

  /// Appends \p count empty slots and returns the index of the first, so a
  /// parallel sampler can fill disjoint slots without synchronization.
  /// Throws std::length_error with the offending sizes if the request
  /// cannot be represented — the callers grow before entering their
  /// parallel fill regions, so an absurd theta surfaces here as one
  /// catchable diagnostic instead of a bad_alloc on a worker thread.
  std::size_t grow(std::size_t count);

  /// Exact heap bytes held by the representation (vector headers + vertex
  /// payload capacity) — the quantity Table 2 reports per implementation.
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Total number of (sample, vertex) associations.
  [[nodiscard]] std::size_t total_associations() const;

  void clear() { sets_.clear(); }

private:
  std::vector<RRRSet> sets_;
};

/// Delta+varint compressed arena (DESIGN.md §12): each sample is one record
/// `[varint member_count][varint first][varint deltas...]` — members are
/// sorted and unique, so consecutive differences are small positive integers
/// that LEB128 encodes in 1-2 bytes on the paper's graphs (HBMax, arXiv
/// 2208.00613, and Wang et al., arXiv 2311.07554, report 3-10x on exactly
/// this structure).  Selection decodes on iterate: the greedy kernels only
/// ever scan the collection front to back, so the index stores one byte
/// offset per kBlockSize sets (amortized ~0 bytes/set) instead of one per
/// set, and retired sets are *skipped* (continuation-bit scan, no value
/// decode).  The budget governor switches RRR storage to this
/// representation when the uncompressed arena would exceed the budget.
class CompressedRRRCollection {
public:
  /// Sets per index block; random access decodes at most this many headers.
  static constexpr std::size_t kBlockSize = 256;

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
  void append(std::span<const vertex_t> members);

  /// Decodes sample \p j into \p out (cleared first).  Block-indexed: seeks
  /// to the enclosing block, then skips at most kBlockSize - 1 records.
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
  /// coordinates), overwrites the damaged bytes in place, and refreshes the
  /// block CRC.  Throws std::runtime_error when the re-encoding does not
  /// match the block's byte length — regeneration was not bit-identical, so
  /// the damage is not repairable and must escalate.
  void repair_block(std::size_t b, std::span<const RRRSet> sets);

  /// Deterministic fault-injection surface (the storage-level analogue of
  /// mpsim's kind=corrupt): flips one payload bit, leaving the stored block
  /// CRC describing the clean bytes.
  void flip_payload_bit(std::size_t bit);

  /// Sequential decode-on-iterate reader, the access pattern of every
  /// selection kernel.  next_header() positions at a record's members and
  /// returns its member count; the caller then either decode_members() or
  /// skip_members() (retired sets cost a continuation-bit scan only).
  class Cursor {
  public:
    explicit Cursor(const CompressedRRRCollection &collection)
        : p_(collection.payload_.data()),
          end_(collection.payload_.data() + collection.payload_.size()) {}

    [[nodiscard]] bool at_end() const { return p_ == end_; }
    [[nodiscard]] std::uint32_t next_header();
    /// Decodes the current record's \p count members into \p out (cleared
    /// first; members come out sorted, exactly as encoded).
    void decode_members(std::uint32_t count, std::vector<vertex_t> &out);
    /// Skips the current record's \p count member varints without decoding.
    void skip_members(std::uint32_t count);

  private:
    friend class CompressedRRRCollection;
    [[nodiscard]] std::uint64_t read_varint();
    const std::uint8_t *p_;
    const std::uint8_t *end_;
  };

  [[nodiscard]] Cursor cursor() const { return Cursor(*this); }

private:
  /// Encodes one record (count header + delta varints) into \p out —
  /// shared by append and repair_block so a repaired block is byte-for-byte
  /// what append would have produced.
  static void encode_record(std::vector<std::uint8_t> &out,
                            std::span<const vertex_t> members);
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
