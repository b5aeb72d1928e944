#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "obs/span.hpp"
#include "util/artifact.hpp"
#include "util/csv.hpp"

namespace dnsembed::graph {

void save_bipartite_csv(std::ostream& out, const BipartiteGraph& g) {
  util::CsvWriter csv{out};
  csv.write_row({"left", "right"});
  for (VertexId l = 0; l < g.left_count(); ++l) {
    const auto& left_name = g.left_names().name(l);
    for (const VertexId r : g.left_neighbors(l)) {
      csv.write_row({left_name, g.right_names().name(r)});
    }
  }
}

BipartiteGraph load_bipartite_csv(std::istream& in) {
  BipartiteGraph g;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = util::parse_csv_line(line);
    if (line_no == 1 && fields.size() == 2 && fields[0] == "left") continue;  // header
    if (fields.size() != 2 || fields[0].empty() || fields[1].empty()) {
      throw std::runtime_error{"bipartite CSV: bad line " + std::to_string(line_no)};
    }
    g.add_edge(fields[0], fields[1]);
  }
  g.finalize();
  return g;
}

void save_weighted_csv(std::ostream& out, const WeightedGraph& g) {
  util::CsvWriter csv{out};
  csv.write_row({"u", "v", "weight"});
  for (const auto& e : g.edges()) {
    csv.write_row({g.names().name(e.u), g.names().name(e.v), std::to_string(e.weight)});
  }
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.degree(v) == 0) csv.write_row({g.names().name(v), "", ""});
  }
}

WeightedGraph load_weighted_csv(std::istream& in) {
  WeightedGraph g;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = util::parse_csv_line(line);
    if (line_no == 1 && fields.size() == 3 && fields[0] == "u") continue;  // header
    if (fields.size() != 3 || fields[0].empty()) {
      throw std::runtime_error{"weighted CSV: bad line " + std::to_string(line_no)};
    }
    if (fields[1].empty()) {
      g.add_vertex(fields[0]);  // isolated vertex row
      continue;
    }
    double weight = 0.0;
    const auto& w = fields[2];
    const auto [ptr, ec] = std::from_chars(w.data(), w.data() + w.size(), weight);
    if (ec != std::errc{} || ptr != w.data() + w.size()) {
      throw std::runtime_error{"weighted CSV: bad weight at line " + std::to_string(line_no)};
    }
    g.add_edge(fields[0], fields[1], weight);
  }
  return g;
}

namespace {

// Sections of the bipartite arena.
constexpr std::uint64_t kTagHead = util::arena_tag("HEAD");          // left, right, edges
constexpr std::uint64_t kTagLeftBlob = util::arena_tag("LNAMB");
constexpr std::uint64_t kTagLeftOffsets = util::arena_tag("LNAMO");
constexpr std::uint64_t kTagRightBlob = util::arena_tag("RNAMB");
constexpr std::uint64_t kTagRightOffsets = util::arena_tag("RNAMO");
constexpr std::uint64_t kTagRowOffsets = util::arena_tag("OFFS");    // left-major rows
constexpr std::uint64_t kTagRightIds = util::arena_tag("RGHT");

[[noreturn]] void bad_payload(const std::string& context, std::string reason) {
  util::fsio::note_corrupt_detected();
  throw util::CorruptArtifact{context, std::move(reason)};
}

}  // namespace

void save_bipartite_file(const std::string& path, const BipartiteGraph& g) {
  OBS_SPAN("graph.bipartite.save");
  // Right ids are renumbered to their first appearance in a left-major
  // scan, the order a loader of the "left,right" edge list assigns, so a
  // loaded graph has the ids the CSV round trip gives; right vertices
  // without edges follow in id order.
  constexpr VertexId kUnseen = ~VertexId{0};
  std::vector<VertexId> renumbered(g.right_count(), kUnseen);
  util::NameTable right_names;
  std::vector<std::uint64_t> row_offsets{0};
  std::vector<std::uint32_t> right_ids;
  row_offsets.reserve(g.left_count() + 1);
  right_ids.reserve(g.edge_count());
  VertexId next = 0;
  const auto number = [&](VertexId r) {
    if (renumbered[r] == kUnseen) {
      renumbered[r] = next++;
      right_names.add(g.right_names().name(r));
    }
    return renumbered[r];
  };
  for (VertexId l = 0; l < g.left_count(); ++l) {
    for (const VertexId r : g.left_neighbors(l)) right_ids.push_back(number(r));
    std::sort(right_ids.begin() + static_cast<std::ptrdiff_t>(row_offsets.back()),
              right_ids.end());
    row_offsets.push_back(right_ids.size());
  }
  for (VertexId r = 0; r < g.right_count(); ++r) number(r);
  const util::NameTable left_names = util::build_name_table(g.left_names().names());

  const std::uint64_t head[3] = {g.left_count(), g.right_count(), g.edge_count()};
  util::ArenaWriter w;
  w.add(kTagHead, head, sizeof(head));
  w.add(kTagLeftBlob, left_names.blob.data(), left_names.blob.size());
  w.add_typed<std::uint64_t>(kTagLeftOffsets, left_names.offsets);
  w.add(kTagRightBlob, right_names.blob.data(), right_names.blob.size());
  w.add_typed<std::uint64_t>(kTagRightOffsets, right_names.offsets);
  w.add_typed<std::uint64_t>(kTagRowOffsets, row_offsets);
  w.add_typed<std::uint32_t>(kTagRightIds, right_ids);
  w.save_file(path, kBipartiteArenaKind);
}

BipartiteGraph load_bipartite_file(const std::string& path) {
  OBS_SPAN("graph.bipartite.load");
  const util::MappedArtifact artifact = util::map_artifact(path, kBipartiteArenaKind);
  const util::ArenaView arena = util::ArenaView::parse(artifact.payload(), path);
  const auto head = arena.typed<std::uint64_t>(kTagHead, path);
  if (head.size() != 3) bad_payload(path, "bipartite: bad header section");
  const std::uint64_t left_count = head[0];
  const std::uint64_t right_count = head[1];
  const std::uint64_t edge_count = head[2];
  if (left_count >= std::uint64_t{1} << 32 || right_count >= std::uint64_t{1} << 32) {
    bad_payload(path, "bipartite: implausible vertex count");
  }
  const std::string_view left_blob = arena.section(kTagLeftBlob, path);
  const auto left_offsets = arena.typed<std::uint64_t>(kTagLeftOffsets, path);
  const std::string_view right_blob = arena.section(kTagRightBlob, path);
  const auto right_offsets = arena.typed<std::uint64_t>(kTagRightOffsets, path);
  const auto row_offsets = arena.typed<std::uint64_t>(kTagRowOffsets, path);
  const auto right_ids = arena.typed<std::uint32_t>(kTagRightIds, path);
  util::check_name_table(left_blob, left_offsets, left_count, path);
  util::check_name_table(right_blob, right_offsets, right_count, path);
  if (row_offsets.size() != left_count + 1 || right_ids.size() != edge_count) {
    bad_payload(path, "bipartite: section sizes disagree with the header");
  }
  if (row_offsets[0] != 0 || row_offsets[left_count] != edge_count) {
    bad_payload(path, "bipartite: row offsets do not cover the right ids");
  }
  // Monotone from 0 to edge_count: every row then lies inside right_ids.
  for (std::uint64_t l = 0; l < left_count; ++l) {
    if (row_offsets[l] > row_offsets[l + 1]) {
      bad_payload(path, "bipartite: row offsets not monotone");
    }
  }

  BipartiteGraph g;
  const auto name = [](std::string_view blob, std::span<const std::uint64_t> offsets,
                       std::uint64_t i) {
    return blob.substr(offsets[i], offsets[i + 1] - offsets[i]);
  };
  for (std::uint64_t l = 0; l < left_count; ++l) {
    if (g.add_left(name(left_blob, left_offsets, l)) != l) {
      bad_payload(path, "bipartite: duplicate left name");
    }
  }
  for (std::uint64_t r = 0; r < right_count; ++r) {
    if (g.add_right(name(right_blob, right_offsets, r)) != r) {
      bad_payload(path, "bipartite: duplicate right name");
    }
  }
  for (std::uint64_t l = 0; l < left_count; ++l) {
    for (std::uint64_t i = row_offsets[l]; i < row_offsets[l + 1]; ++i) {
      if (right_ids[i] >= right_count) bad_payload(path, "bipartite: right id out of range");
      if (i > row_offsets[l] && right_ids[i - 1] >= right_ids[i]) {
        bad_payload(path, "bipartite: row not strictly ascending");
      }
      g.add_edge(static_cast<VertexId>(l), right_ids[i]);
    }
  }
  g.finalize();
  return g;
}

util::CsrGraph to_csr(const WeightedGraph& g) {
  std::vector<std::uint32_t> edge_u;
  std::vector<std::uint32_t> edge_v;
  std::vector<double> edge_w;
  edge_u.reserve(g.edge_count());
  edge_v.reserve(g.edge_count());
  edge_w.reserve(g.edge_count());
  for (const auto& e : g.edges()) {
    edge_u.push_back(e.u);
    edge_v.push_back(e.v);
    edge_w.push_back(e.weight);
  }
  return util::CsrGraph::build(g.vertex_count(), std::move(edge_u), std::move(edge_v),
                               std::move(edge_w), g.names().names());
}

WeightedGraph from_csr(const util::CsrGraph& g) {
  WeightedGraph out;
  for (std::uint32_t v = 0; v < g.vertex_count(); ++v) {
    if (g.has_names()) {
      out.add_vertex(g.name(v));
    } else {
      out.add_vertex(std::to_string(v));
    }
  }
  const auto eu = g.edge_u();
  const auto ev = g.edge_v();
  const auto ew = g.edge_w();
  for (std::size_t i = 0; i < eu.size(); ++i) {
    out.add_edge_unchecked(eu[i], ev[i], ew[i]);
  }
  return out;
}

void save_csr_file(const std::string& path, WeightedGraph g) {
  OBS_SPAN("graph.csr.save");
  const util::CsrGraph csr = to_csr(g);
  g = {};  // the arena holds everything now; free the adjacency lists
  csr.save_file(path);
}

void save_csr_file(const std::string& path, const util::CsrGraph& g) {
  OBS_SPAN("graph.csr.save");
  g.save_file(path);
}

util::CsrGraph load_csr_file(const std::string& path) {
  return util::CsrGraph::load_file(path);
}

}  // namespace dnsembed::graph
