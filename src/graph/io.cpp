#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace ripples {

namespace {

constexpr std::uint32_t kBinaryMagic = 0x52504C47; // "RPLG"
constexpr std::uint32_t kBinaryVersion = 1;

[[noreturn]] void fail(const std::string &what) {
  throw std::runtime_error("ripples graph io: " + what);
}

/// Weights are activation probabilities: [0, 1] by contract.  The !(>= 0)
/// form also catches NaN, which compares false to everything.  \p where
/// names the offending record; it is called only on failure.
template <typename Where> void check_weight(float weight, Where &&where) {
  if (!(weight >= 0.0f) || weight > 1.0f)
    fail("weight " + std::to_string(weight) + " out of [0, 1] at " + where());
}

} // namespace

EdgeList read_edge_list_text(std::istream &input, bool compact_ids,
                             const EdgeListValidation &validation) {
  EdgeList list;
  std::unordered_map<std::uint64_t, vertex_t> compact;
  auto intern = [&](std::uint64_t raw) -> vertex_t {
    if (!compact_ids) {
      auto id = static_cast<vertex_t>(raw);
      list.num_vertices = std::max(list.num_vertices,
                                   static_cast<vertex_t>(id + 1));
      return id;
    }
    auto [it, inserted] = compact.try_emplace(raw, list.num_vertices);
    if (inserted) ++list.num_vertices;
    return it->second;
  };

  // Our own writer emits "# ripples edge list: N vertices, M edges"; when
  // a file carries that header, the declared edge count catches truncated
  // copies (a partial download or filled disk) that would otherwise load as
  // a silently smaller — and wrong — graph.
  std::uint64_t declared_edges = 0;
  bool have_declared = false;
  std::unordered_set<std::uint64_t> seen_arcs;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(input, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') {
      unsigned long long n = 0, m = 0;
      if (std::sscanf(line.c_str(),
                      "# ripples edge list: %llu vertices, %llu edges", &n,
                      &m) == 2) {
        declared_edges = m;
        have_declared = true;
      }
      continue;
    }
    std::istringstream fields(line);
    std::uint64_t raw_src = 0, raw_dst = 0;
    if (!(fields >> raw_src >> raw_dst))
      fail("malformed edge at line " + std::to_string(line_no));
    float weight = 1.0f;
    fields >> weight; // optional third column
    // A missing third column leaves weight at 1.0 (the stream fails at
    // EOF before extracting); a *malformed* token like "abc" also fails
    // but mid-line — reject it rather than silently reading garbage.
    if (fields.fail() && !fields.eof())
      fail("malformed weight at line " + std::to_string(line_no));
    check_weight(weight, [&] { return "line " + std::to_string(line_no); });
    if (validation.reject_self_loops && raw_src == raw_dst)
      fail("self-loop " + std::to_string(raw_src) + " at line " +
           std::to_string(line_no));
    vertex_t src = intern(raw_src);
    vertex_t dst = intern(raw_dst);
    if (validation.reject_duplicates) {
      const std::uint64_t arc =
          (static_cast<std::uint64_t>(src) << 32) | dst;
      if (!seen_arcs.insert(arc).second)
        fail("duplicate edge " + std::to_string(raw_src) + " -> " +
             std::to_string(raw_dst) + " at line " + std::to_string(line_no));
    }
    list.edges.push_back({src, dst, weight});
  }
  if (have_declared && list.edges.size() != declared_edges)
    fail("header declares " + std::to_string(declared_edges) +
         " edges but the file holds " + std::to_string(list.edges.size()) +
         " (truncated after line " + std::to_string(line_no) + "?)");
  return list;
}

EdgeList load_edge_list_text(const std::string &path, bool compact_ids,
                             const EdgeListValidation &validation) {
  std::ifstream input(path);
  if (!input) fail("cannot open '" + path + "'");
  return read_edge_list_text(input, compact_ids, validation);
}

void write_edge_list_text(std::ostream &output, const EdgeList &list) {
  output << "# ripples edge list: " << list.num_vertices << " vertices, "
         << list.edges.size() << " edges\n";
  for (const WeightedEdge &e : list.edges)
    output << e.source << '\t' << e.destination << '\t' << e.weight << '\n';
}

void save_edge_list_text(const std::string &path, const EdgeList &list) {
  std::ofstream output(path);
  if (!output) fail("cannot open '" + path + "' for writing");
  write_edge_list_text(output, list);
}

EdgeList load_edge_list_binary(const std::string &path) {
  std::ifstream input(path, std::ios::binary);
  if (!input) fail("cannot open '" + path + "'");

  std::array<std::uint32_t, 2> magic_version{};
  std::uint64_t n = 0, m = 0;
  input.read(reinterpret_cast<char *>(magic_version.data()),
             sizeof(magic_version));
  input.read(reinterpret_cast<char *>(&n), sizeof(n));
  input.read(reinterpret_cast<char *>(&m), sizeof(m));
  if (!input || magic_version[0] != kBinaryMagic)
    fail("'" + path + "' is not a ripples binary edge list");
  if (magic_version[1] != kBinaryVersion)
    fail("unsupported binary version in '" + path + "'");
  if (n > std::numeric_limits<vertex_t>::max())
    fail("header of '" + path + "' declares " + std::to_string(n) +
         " vertices, more than a vertex id can address");

  // The edge count drives a preallocation, so validate it against the
  // bytes actually present before trusting it: a corrupt (or hostile)
  // header declaring 10^15 edges must produce this diagnostic, not a
  // multi-terabyte resize that the allocator kills the process over.
  const auto header_bytes = static_cast<std::uint64_t>(input.tellg());
  input.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::uint64_t>(input.tellg());
  input.seekg(static_cast<std::streamoff>(header_bytes), std::ios::beg);
  const std::uint64_t payload_capacity =
      (file_bytes - header_bytes) / sizeof(WeightedEdge);
  if (m > payload_capacity)
    fail("header of '" + path + "' declares " + std::to_string(m) +
         " edges but the file can hold at most " +
         std::to_string(payload_capacity) +
         " (corrupt header or truncated payload)");

  EdgeList list;
  list.num_vertices = static_cast<vertex_t>(n);
  list.edges.resize(m);
  input.read(reinterpret_cast<char *>(list.edges.data()),
             static_cast<std::streamsize>(m * sizeof(WeightedEdge)));
  if (!input) fail("truncated payload in '" + path + "'");
  // The payload gets the text loader's checks: an endpoint past the
  // declared vertex count would abort the CSR builder, and an
  // out-of-range weight breaks the samplers' probability contract.
  for (std::uint64_t i = 0; i < m; ++i) {
    const WeightedEdge &e = list.edges[i];
    auto where = [&] {
      return "edge " + std::to_string(i) + " of '" + path + "'";
    };
    if (e.source >= n || e.destination >= n)
      fail("endpoint " + std::to_string(std::max(e.source, e.destination)) +
           " out of range for " + std::to_string(n) + " vertices at " +
           where());
    check_weight(e.weight, where);
  }
  return list;
}

void save_edge_list_binary(const std::string &path, const EdgeList &list) {
  std::ofstream output(path, std::ios::binary);
  if (!output) fail("cannot open '" + path + "' for writing");
  const std::array<std::uint32_t, 2> magic_version{kBinaryMagic, kBinaryVersion};
  const std::uint64_t n = list.num_vertices;
  const std::uint64_t m = list.edges.size();
  output.write(reinterpret_cast<const char *>(magic_version.data()),
               sizeof(magic_version));
  output.write(reinterpret_cast<const char *>(&n), sizeof(n));
  output.write(reinterpret_cast<const char *>(&m), sizeof(m));
  output.write(reinterpret_cast<const char *>(list.edges.data()),
               static_cast<std::streamsize>(m * sizeof(WeightedEdge)));
  if (!output) fail("write failure on '" + path + "'");
}

} // namespace ripples
