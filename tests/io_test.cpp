// Tests for the edge-list file formats (SNAP text and binary cache).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace ripples {
namespace {

class IoTest : public ::testing::Test {
protected:
  void SetUp() override {
    directory_ = std::filesystem::temp_directory_path() /
                 ("ripples_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(directory_);
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }

  [[nodiscard]] std::string path(const std::string &name) const {
    return (directory_ / name).string();
  }

  std::filesystem::path directory_;
};

TEST_F(IoTest, ParsesSnapStyleText) {
  std::istringstream input(
      "# Directed graph (each unordered pair of nodes is saved once)\n"
      "# FromNodeId\tToNodeId\n"
      "100 200\n"
      "200 300\n"
      "% alternate comment style\n"
      "100 300\n");
  EdgeList list = read_edge_list_text(input);
  EXPECT_EQ(list.num_vertices, 3u); // ids compacted to 0..2
  ASSERT_EQ(list.edges.size(), 3u);
  EXPECT_EQ(list.edges[0].source, 0u);      // 100
  EXPECT_EQ(list.edges[0].destination, 1u); // 200
  EXPECT_EQ(list.edges[2].source, 0u);      // 100
  EXPECT_EQ(list.edges[2].destination, 2u); // 300
  EXPECT_FLOAT_EQ(list.edges[0].weight, 1.0f);
}

TEST_F(IoTest, ParsesOptionalWeightColumn) {
  std::istringstream input("0 1 0.25\n1 2 0.75\n");
  EdgeList list = read_edge_list_text(input);
  ASSERT_EQ(list.edges.size(), 2u);
  EXPECT_FLOAT_EQ(list.edges[0].weight, 0.25f);
  EXPECT_FLOAT_EQ(list.edges[1].weight, 0.75f);
}

TEST_F(IoTest, RejectsMalformedLines) {
  std::istringstream input("0 1\nnot an edge\n");
  EXPECT_THROW((void)read_edge_list_text(input), std::runtime_error);
}

// --- input validation: poisoned weights, truncation, strict screens ---------

void expect_rejected_naming_line(const std::string &text,
                                 const std::string &needle,
                                 const std::string &line,
                                 const EdgeListValidation &validation = {}) {
  std::istringstream input(text);
  try {
    (void)read_edge_list_text(input, true, validation);
    FAIL() << "accepted: " << text;
  } catch (const std::runtime_error &error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("line " + line),
              std::string::npos)
        << error.what();
  }
}

TEST_F(IoTest, RejectsMalformedWeightTokenInsteadOfReadingZero) {
  // Pre-validation, "abc" left failbit set but weight silently at 0 for
  // some stream states; now it is a line-numbered error.
  expect_rejected_naming_line("0 1 0.5\n1 2 abc\n", "weight", "2");
}

TEST_F(IoTest, RejectsNegativeWeight) {
  expect_rejected_naming_line("0 1 -0.25\n", "out of [0, 1]", "1");
}

TEST_F(IoTest, RejectsWeightAboveOne) {
  expect_rejected_naming_line("0 1 0.5\n1 2 1.5\n", "out of [0, 1]", "2");
}

TEST_F(IoTest, RejectsNaNWeight) {
  // Whether the platform's num_get parses "nan" (then !(w >= 0) catches it)
  // or rejects the token (malformed weight), the line must be refused —
  // a NaN activation probability poisons every sampler downstream.
  std::istringstream input("0 1 nan\n");
  EXPECT_THROW((void)read_edge_list_text(input), std::runtime_error);
}

TEST_F(IoTest, RejectsTruncatedEdgeListAgainstTheDeclaredHeaderCount) {
  EdgeList original = erdos_renyi(30, 120, 9);
  save_edge_list_text(path("full.txt"), original);
  // Truncate the copy: drop the last 10 lines (partial download / full disk).
  std::ifstream in(path("full.txt"));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  {
    std::ofstream out(path("cut.txt"));
    for (std::size_t i = 0; i + 10 < lines.size(); ++i) out << lines[i] << "\n";
  }
  EXPECT_NO_THROW((void)load_edge_list_text(path("full.txt")));
  try {
    (void)load_edge_list_text(path("cut.txt"));
    FAIL() << "truncated file accepted";
  } catch (const std::runtime_error &error) {
    EXPECT_NE(std::string(error.what()).find("truncated"), std::string::npos)
        << error.what();
  }
}

TEST_F(IoTest, SelfLoopsAndDuplicatesLoadByDefault) {
  // Raw SNAP data legitimately contains both; CsrGraph drops self-loops and
  // keeps duplicates as multi-arcs, so the loader must not reject them
  // unless asked to.
  std::istringstream input("5 5\n0 1\n0 1\n");
  EdgeList list = read_edge_list_text(input);
  EXPECT_EQ(list.edges.size(), 3u);
}

TEST_F(IoTest, StrictValidationRejectsSelfLoops) {
  EdgeListValidation strict;
  strict.reject_self_loops = true;
  expect_rejected_naming_line("0 1\n5 5\n", "self-loop", "2", strict);
}

TEST_F(IoTest, StrictValidationRejectsDuplicateEdges) {
  EdgeListValidation strict;
  strict.reject_duplicates = true;
  expect_rejected_naming_line("0 1\n1 2\n0 1\n", "duplicate", "3", strict);
}

TEST_F(IoTest, TextRoundTripWithoutCompaction) {
  EdgeList original = erdos_renyi(60, 300, 5);
  save_edge_list_text(path("graph.txt"), original);
  EdgeList loaded = load_edge_list_text(path("graph.txt"), /*compact_ids=*/false);
  EXPECT_EQ(loaded.num_vertices, original.num_vertices);
  ASSERT_EQ(loaded.edges.size(), original.edges.size());
  for (std::size_t i = 0; i < loaded.edges.size(); ++i) {
    EXPECT_EQ(loaded.edges[i].source, original.edges[i].source);
    EXPECT_EQ(loaded.edges[i].destination, original.edges[i].destination);
  }
}

TEST_F(IoTest, TextRoundTripWithCompactionPreservesStructure) {
  // Compaction relabels but keeps the multigraph structure: counts of
  // vertices and edges, and the degree multiset.
  EdgeList original = erdos_renyi(60, 300, 5);
  save_edge_list_text(path("graph.txt"), original);
  EdgeList loaded = load_edge_list_text(path("graph.txt"));
  EXPECT_EQ(loaded.num_vertices, original.num_vertices);
  ASSERT_EQ(loaded.edges.size(), original.edges.size());
  std::vector<int> degree_original(60, 0), degree_loaded(60, 0);
  for (const WeightedEdge &e : original.edges) ++degree_original[e.source];
  for (const WeightedEdge &e : loaded.edges) ++degree_loaded[e.source];
  std::sort(degree_original.begin(), degree_original.end());
  std::sort(degree_loaded.begin(), degree_loaded.end());
  EXPECT_EQ(degree_original, degree_loaded);
}

TEST_F(IoTest, LoadTextMissingFileThrows) {
  EXPECT_THROW((void)load_edge_list_text(path("absent.txt")),
               std::runtime_error);
}

TEST_F(IoTest, BinaryRoundTripIsExact) {
  EdgeList original = erdos_renyi(100, 900, 11);
  for (std::size_t i = 0; i < original.edges.size(); ++i)
    original.edges[i].weight = static_cast<float>(i) * 0.001f;
  save_edge_list_binary(path("graph.bin"), original);
  EdgeList loaded = load_edge_list_binary(path("graph.bin"));
  EXPECT_EQ(loaded.num_vertices, original.num_vertices);
  EXPECT_EQ(loaded.edges, original.edges);
}

TEST_F(IoTest, BinaryRejectsWrongMagic) {
  std::ofstream out(path("junk.bin"), std::ios::binary);
  out << "this is not a ripples file at all, padding padding padding";
  out.close();
  EXPECT_THROW((void)load_edge_list_binary(path("junk.bin")),
               std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsTruncatedPayload) {
  EdgeList original = erdos_renyi(50, 400, 13);
  save_edge_list_binary(path("trunc.bin"), original);
  std::filesystem::resize_file(path("trunc.bin"),
                               std::filesystem::file_size(path("trunc.bin")) / 2);
  EXPECT_THROW((void)load_edge_list_binary(path("trunc.bin")),
               std::runtime_error);
}

// A corrupt header declaring an absurd edge count must be diagnosed from
// the file size, not discovered as a multi-terabyte allocation.  The edge
// count in the header is rewritten in place (bytes [16, 24) of the fixed
// layout) so magic, version, and payload stay valid.
TEST_F(IoTest, BinaryRejectsLyingHeaderBeforeAllocating) {
  EdgeList original = erdos_renyi(50, 400, 17);
  save_edge_list_binary(path("liar.bin"), original);
  {
    std::fstream patch(path("liar.bin"),
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(16);
    const std::uint64_t absurd = 1000ull * 1000 * 1000 * 1000;
    patch.write(reinterpret_cast<const char *>(&absurd), sizeof(absurd));
  }
  try {
    (void)load_edge_list_binary(path("liar.bin"));
    FAIL() << "lying header accepted";
  } catch (const std::runtime_error &error) {
    EXPECT_NE(std::string(error.what()).find("can hold at most"),
              std::string::npos)
        << error.what();
  }
}

// Off-by-one flavour of the same defence: declaring exactly one more edge
// than the payload holds is rejected, declaring exactly the payload count
// loads.
TEST_F(IoTest, BinaryHeaderCapIsExact) {
  EdgeList original = erdos_renyi(30, 200, 19);
  save_edge_list_binary(path("exact.bin"), original);
  EXPECT_NO_THROW((void)load_edge_list_binary(path("exact.bin")));
  {
    std::fstream patch(path("exact.bin"),
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(16);
    const std::uint64_t one_more = original.edges.size() + 1;
    patch.write(reinterpret_cast<const char *>(&one_more), sizeof(one_more));
  }
  EXPECT_THROW((void)load_edge_list_binary(path("exact.bin")),
               std::runtime_error);
}

// The binary payload gets the text loader's checks: each bad record is
// written verbatim by the saver (which trusts its input) and must come back
// as a diagnostic naming the edge, never a CSR-builder abort.
TEST_F(IoTest, BinaryRejectsBadPayloadRecords) {
  struct Case {
    const char *name;
    WeightedEdge bad;
    const char *message;
  };
  const Case cases[] = {
      {"endpoint", {3, 40, 0.5f}, "endpoint 40 out of range for 40 vertices"},
      {"nan", {3, 4, std::numeric_limits<float>::quiet_NaN()}, "out of [0, 1]"},
      {"above_one", {3, 4, 1.5f}, "weight 1.500000 out of [0, 1]"},
  };
  for (const Case &c : cases) {
    EdgeList list = erdos_renyi(40, 100, 23);
    list.edges[57] = c.bad;
    const std::string file = path(std::string(c.name) + ".bin");
    save_edge_list_binary(file, list);
    try {
      (void)load_edge_list_binary(file);
      ADD_FAILURE() << c.name << ": bad record accepted";
    } catch (const std::runtime_error &error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(c.message), std::string::npos) << what;
      EXPECT_NE(what.find("edge 57"), std::string::npos) << what;
    }
  }
}

// A vertex count past what a vertex id can address is refused from the
// header (bytes [8, 16)), not truncated into a smaller graph.
TEST_F(IoTest, BinaryRejectsVertexCountBeyondVertexIds) {
  save_edge_list_binary(path("wide.bin"), erdos_renyi(30, 200, 29));
  {
    std::fstream patch(path("wide.bin"),
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(8);
    const std::uint64_t wide = std::uint64_t{1} << 32;
    patch.write(reinterpret_cast<const char *>(&wide), sizeof(wide));
  }
  EXPECT_THROW((void)load_edge_list_binary(path("wide.bin")),
               std::runtime_error);
}

TEST_F(IoTest, EmptyEdgeListRoundTrips) {
  EdgeList empty;
  empty.num_vertices = 42;
  save_edge_list_binary(path("empty.bin"), empty);
  EdgeList loaded = load_edge_list_binary(path("empty.bin"));
  EXPECT_EQ(loaded.num_vertices, 42u);
  EXPECT_TRUE(loaded.edges.empty());
}

} // namespace
} // namespace ripples
