#include "support/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unistd.h>

#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace ripples::checkpoint {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// CRC-32

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

} // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t b : bytes)
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const char *to_string(LoadError error) {
  switch (error) {
  case LoadError::OpenFailed:
    return "open-failed";
  case LoadError::BadMagic:
    return "bad-magic";
  case LoadError::VersionSkew:
    return "version-skew";
  case LoadError::Truncated:
    return "truncated";
  case LoadError::CrcMismatch:
    return "crc-mismatch";
  case LoadError::FingerprintMismatch:
    return "fingerprint-mismatch";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Field-by-field little-endian (de)serialization.  Doubles travel as their
// IEEE-754 bit pattern, so a resumed run restores lower_bound/last_coverage
// *bit-exactly* — any rounding here would break seed equivalence.

namespace {

struct ByteWriter {
  std::vector<std::uint8_t> bytes;

  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t raw;
    static_assert(sizeof raw == sizeof v);
    std::memcpy(&raw, &v, sizeof raw);
    u64(raw);
  }
  void str(const std::string &s) {
    u64(s.size());
    bytes.insert(bytes.end(), s.begin(), s.end());
  }
  void u64_vec(const std::vector<std::uint64_t> &v) {
    u64(v.size());
    for (std::uint64_t x : v)
      u64(x);
  }
};

struct ByteReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  void require(std::size_t n) const {
    if (pos + n > bytes.size())
      throw CheckpointError(
          LoadError::Truncated,
          "ripples checkpoint: payload ends mid-field (need " +
              std::to_string(n) + " bytes at offset " + std::to_string(pos) +
              ", payload is " + std::to_string(bytes.size()) + ")");
  }
  std::uint8_t u8() {
    require(1);
    return bytes[pos++];
  }
  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  double f64() {
    std::uint64_t raw = u64();
    double v;
    std::memcpy(&v, &raw, sizeof v);
    return v;
  }
  std::string str() {
    std::uint64_t n = u64();
    require(n);
    std::string s(reinterpret_cast<const char *>(bytes.data() + pos), n);
    pos += n;
    return s;
  }
  std::vector<std::uint64_t> u64_vec() {
    std::uint64_t n = u64();
    require(n * 8); // cheap bound check before the element loop
    std::vector<std::uint64_t> v(n);
    for (std::uint64_t i = 0; i < n; ++i)
      v[i] = u64();
    return v;
  }
};

void write_fingerprint(ByteWriter &w, const RunFingerprint &fp) {
  w.str(fp.driver);
  w.u64(fp.graph_hash);
  w.u64(fp.graph_vertices);
  w.u64(fp.graph_edges);
  w.u64(fp.seed);
  w.f64(fp.epsilon);
  w.f64(fp.l);
  w.u32(fp.k);
  w.u8(fp.model);
  w.u8(fp.rng_mode);
  // The retired selection-exchange byte and top-m word: written as 0 and
  // skipped on read, because the exchange protocol never changed an answer.
  w.u8(0);
  w.u32(0);
  w.u32(static_cast<std::uint32_t>(fp.world_size));
}

RunFingerprint read_fingerprint(ByteReader &r) {
  RunFingerprint fp;
  fp.driver = r.str();
  fp.graph_hash = r.u64();
  fp.graph_vertices = r.u64();
  fp.graph_edges = r.u64();
  fp.seed = r.u64();
  fp.epsilon = r.f64();
  fp.l = r.f64();
  fp.k = r.u32();
  fp.model = r.u8();
  fp.rng_mode = r.u8();
  (void)r.u8();
  (void)r.u32();
  fp.world_size = static_cast<std::int32_t>(r.u32());
  return fp;
}

} // namespace

std::string
RunFingerprint::describe_mismatch(const RunFingerprint &other) const {
  std::ostringstream out;
  auto field = [&out, first = true](const char *name, const auto &want,
                                    const auto &got) mutable {
    if (want == got)
      return;
    if (!first)
      out << ", ";
    first = false;
    out << name << " (snapshot " << got << ", run " << want << ")";
  };
  field("driver", driver, other.driver);
  field("graph_hash", graph_hash, other.graph_hash);
  field("graph_vertices", graph_vertices, other.graph_vertices);
  field("graph_edges", graph_edges, other.graph_edges);
  field("seed", seed, other.seed);
  field("epsilon", epsilon, other.epsilon);
  field("l", l, other.l);
  field("k", k, other.k);
  field("model", static_cast<int>(model), static_cast<int>(other.model));
  field("rng_mode", static_cast<int>(rng_mode),
        static_cast<int>(other.rng_mode));
  field("world_size", world_size, other.world_size);
  return out.str();
}

std::vector<std::uint8_t> Snapshot::serialize() const {
  ByteWriter payload;
  write_fingerprint(payload, fingerprint);
  payload.u32(next_round);
  payload.u8(accepted ? 1 : 0);
  payload.f64(lower_bound);
  payload.f64(last_coverage);
  payload.u32(estimation_iterations);
  payload.u64(num_samples);
  payload.u64_vec(extend_targets);
  payload.u64_vec(stream_counts);

  ByteWriter out;
  out.u32(kMagic);
  out.u32(kVersion);
  out.u64(payload.bytes.size());
  out.u32(crc32(payload.bytes));
  out.bytes.insert(out.bytes.end(), payload.bytes.begin(),
                   payload.bytes.end());
  return out.bytes;
}

Snapshot Snapshot::deserialize(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;
  if (bytes.size() < kHeaderBytes)
    throw CheckpointError(LoadError::Truncated,
                          "ripples checkpoint: file is " +
                              std::to_string(bytes.size()) +
                              " bytes, shorter than the " +
                              std::to_string(kHeaderBytes) + "-byte header");

  ByteReader header{bytes.first(kHeaderBytes)};
  std::uint32_t magic = header.u32();
  if (magic != kMagic) {
    std::ostringstream out;
    out << "ripples checkpoint: bad magic 0x" << std::hex << magic
        << " (not a ripples checkpoint file)";
    throw CheckpointError(LoadError::BadMagic, out.str());
  }
  std::uint32_t version = header.u32();
  if (version != kVersion)
    throw CheckpointError(LoadError::VersionSkew,
                          "ripples checkpoint: format version " +
                              std::to_string(version) +
                              " is not the supported version " +
                              std::to_string(kVersion));
  std::uint64_t payload_bytes = header.u64();
  std::uint32_t stored_crc = header.u32();

  if (bytes.size() - kHeaderBytes < payload_bytes)
    throw CheckpointError(
        LoadError::Truncated,
        "ripples checkpoint: header declares a " +
            std::to_string(payload_bytes) + "-byte payload but only " +
            std::to_string(bytes.size() - kHeaderBytes) +
            " bytes follow (truncated write?)");

  std::span<const std::uint8_t> payload =
      bytes.subspan(kHeaderBytes, payload_bytes);
  std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != stored_crc) {
    std::ostringstream out;
    out << "ripples checkpoint: payload CRC 0x" << std::hex << actual_crc
        << " does not match stored 0x" << stored_crc
        << " (corrupt or tampered file)";
    throw CheckpointError(LoadError::CrcMismatch, out.str());
  }

  ByteReader r{payload};
  Snapshot snapshot;
  snapshot.fingerprint = read_fingerprint(r);
  snapshot.next_round = r.u32();
  snapshot.accepted = r.u8() != 0;
  snapshot.lower_bound = r.f64();
  snapshot.last_coverage = r.f64();
  snapshot.estimation_iterations = r.u32();
  snapshot.num_samples = r.u64();
  snapshot.extend_targets = r.u64_vec();
  snapshot.stream_counts = r.u64_vec();
  return snapshot;
}

void require_matching_fingerprint(const Snapshot &snapshot,
                                  const RunFingerprint &expected) {
  if (snapshot.fingerprint == expected)
    return;
  throw CheckpointError(
      LoadError::FingerprintMismatch,
      "ripples checkpoint: snapshot belongs to a different run; mismatched "
      "fields: " +
          expected.describe_mismatch(snapshot.fingerprint));
}

// ---------------------------------------------------------------------------
// CheckpointManager

namespace {

constexpr const char *kSnapshotExtension = ".rpck";
constexpr const char *kSnapshotPrefix = "ckpt-";

metrics::Counter &writes_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.checkpoint.writes");
  return c;
}

metrics::Counter &bytes_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.checkpoint.bytes");
  return c;
}

/// Live managers, for the signal-path flush.  The list mutex is only ever
/// try-acquired from the handler.
std::mutex &managers_mutex() {
  static std::mutex m;
  return m;
}

std::vector<CheckpointManager *> &managers() {
  static std::vector<CheckpointManager *> list;
  return list;
}

/// Parses "ckpt-NNNNNNNN.rpck" → NNNNNNNN; nullopt for foreign files.
std::optional<std::uint64_t> snapshot_sequence(const fs::path &path) {
  std::string name = path.filename().string();
  std::string prefix = kSnapshotPrefix;
  if (name.size() <= prefix.size() + std::strlen(kSnapshotExtension) ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - std::strlen(kSnapshotExtension),
                   std::string::npos, kSnapshotExtension) != 0)
    return std::nullopt;
  std::string digits = name.substr(
      prefix.size(),
      name.size() - prefix.size() - std::strlen(kSnapshotExtension));
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  return std::strtoull(digits.c_str(), nullptr, 10);
}

} // namespace

struct CheckpointManager::Mutex {
  std::mutex m;
};

CheckpointManager::CheckpointManager(std::string directory,
                                     std::uint32_t every,
                                     std::uint32_t keep_last)
    : directory_(std::move(directory)), every_(std::max(1u, every)),
      keep_last_(std::max(1u, keep_last)), mutex_(new Mutex) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec && !fs::is_directory(directory_))
    throw std::runtime_error("ripples checkpoint: cannot create directory " +
                             directory_ + ": " + ec.message());
  // Continue the sequence past whatever is already on disk, so a resumed
  // run's snapshots sort after — never overwrite — the run it resumed from.
  for (const std::string &file : snapshot_files())
    if (auto seq = snapshot_sequence(file))
      sequence_ = std::max(sequence_, *seq + 1);
  std::lock_guard<std::mutex> lock(managers_mutex());
  managers().push_back(this);
}

CheckpointManager::~CheckpointManager() {
  {
    std::lock_guard<std::mutex> lock(managers_mutex());
    auto &list = managers();
    list.erase(std::remove(list.begin(), list.end(), this), list.end());
  }
  delete mutex_;
}

std::vector<std::string> CheckpointManager::snapshot_files() const {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto &entry : fs::directory_iterator(directory_, ec)) {
    if (auto seq = snapshot_sequence(entry.path()))
      found.emplace_back(*seq, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> files;
  files.reserve(found.size());
  for (auto &[seq, path] : found)
    files.push_back(std::move(path));
  return files;
}

bool CheckpointManager::observe(const Snapshot &snapshot, bool force) {
  std::lock_guard<std::mutex> lock(mutex_->m);
  ++boundaries_;
  pending_ = snapshot;
  pending_written_ = false;
  if (!force && (boundaries_ % every_) != 0)
    return false;
  write_now(snapshot);
  pending_written_ = true;
  return true;
}

void CheckpointManager::write_now(const Snapshot &snapshot) {
  std::vector<std::uint8_t> bytes = snapshot.serialize();

  char name[64];
  std::snprintf(name, sizeof name, "%s%08llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(sequence_),
                kSnapshotExtension);
  fs::path final_path = fs::path(directory_) / name;
  fs::path tmp_path = final_path;
  tmp_path += ".tmp";

  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("ripples checkpoint: cannot open " +
                               tmp_path.string() + " for writing");
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
      throw std::runtime_error("ripples checkpoint: short write to " +
                               tmp_path.string());
  }
  // rename(2) within one directory is atomic: readers see either the old
  // set of snapshots or the new one, never a half-written file.
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec)
    throw std::runtime_error("ripples checkpoint: cannot rename " +
                             tmp_path.string() + " into place: " +
                             ec.message());
  ++sequence_;

  writes_counter().increment();
  bytes_counter().add(bytes.size());
  trace::instant("checkpoint", "checkpoint.write", "round",
                 snapshot.next_round, "bytes", bytes.size());

  std::vector<std::string> files = snapshot_files();
  while (files.size() > keep_last_) {
    fs::remove(files.front(), ec); // best-effort: retention, not correctness
    files.erase(files.begin());
  }
}

bool CheckpointManager::flush_pending() noexcept {
  std::unique_lock<std::mutex> lock(mutex_->m, std::try_to_lock);
  if (!lock.owns_lock())
    return false; // signal path: the interrupted thread may hold the lock
  if (!pending_ || pending_written_)
    return true;
  try {
    write_now(*pending_);
    pending_written_ = true;
    return true;
  } catch (...) {
    return false;
  }
}

std::optional<Snapshot>
CheckpointManager::load_latest(std::string *diagnosis) const {
  std::vector<std::string> files = snapshot_files();
  // Newest first: a torn newest file must fall back to the intact one
  // before it, not fail the resume.
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    try {
      return load_file(*it);
    } catch (const CheckpointError &e) {
      if (diagnosis != nullptr) {
        if (!diagnosis->empty())
          *diagnosis += "; ";
        *diagnosis += *it + ": [" + to_string(e.kind()) + "] " + e.what();
      }
    }
  }
  return std::nullopt;
}

Snapshot CheckpointManager::load_file(const std::string &path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw CheckpointError(LoadError::OpenFailed,
                          "ripples checkpoint: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return Snapshot::deserialize(bytes);
}

bool flush_pending_snapshots() noexcept {
  std::unique_lock<std::mutex> lock(managers_mutex(), std::try_to_lock);
  if (!lock.owns_lock())
    return false;
  bool all = true;
  for (CheckpointManager *manager : managers())
    all = manager->flush_pending() && all;
  return all;
}

// ---------------------------------------------------------------------------
// Graceful shutdown.  The handler deliberately breaks the async-signal-safe
// rules (it takes try-locks and allocates): we are about to _exit anyway, a
// flush that *usually* succeeds beats guaranteed data loss, and every lock
// on the path is try-acquired so the worst case is a skipped flush — never
// a deadlock.

namespace {

volatile std::sig_atomic_t signal_in_flight = 0;

void signal_flush_handler(int signum) {
  if (signal_in_flight) // re-entry (second Ctrl-C): give up immediately
    std::_Exit(128 + signum);
  signal_in_flight = 1;

  flush_pending_snapshots();
  metrics::mark_run_failed("signal", std::string("interrupted by signal ") +
                                         std::to_string(signum));
  metrics::flush_reports_now();
  trace::flush_now();
  std::_Exit(128 + signum);
}

} // namespace

void install_signal_flush() {
  static bool installed = false;
  if (installed)
    return;
  installed = true;
  struct sigaction action {};
  action.sa_handler = signal_flush_handler;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

} // namespace ripples::checkpoint
