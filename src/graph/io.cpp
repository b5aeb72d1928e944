#include "graph/io.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
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

void save_weighted_csv(std::ostream& out, const util::CsrGraph& g) {
  const auto names = g.names_copy();
  util::CsvWriter csv{out};
  csv.write_row({"u", "v", "weight"});
  g.for_each_edge([&](std::uint32_t u, std::uint32_t v, double w) {
    csv.write_row({names[u], names[v], std::to_string(w)});
  });
  for (std::uint32_t v = 0; v < g.vertex_count(); ++v) {
    if (g.degree(v) == 0) csv.write_row({names[v], "", ""});
  }
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
  // without edges follow in id order. One counting pass then fills the
  // rows: walking the new ids upward over each right's lefts appends to
  // every row in ascending order.
  std::vector<char> numbered(g.right_count(), 0);
  std::vector<VertexId> by_new_id;  // the old id of each new id
  by_new_id.reserve(g.right_count());
  const auto number = [&](VertexId r) {
    if (numbered[r] != 0) return;
    numbered[r] = 1;
    by_new_id.push_back(r);
  };
  for (VertexId l = 0; l < g.left_count(); ++l) {
    for (const VertexId r : g.left_neighbors(l)) number(r);
  }
  for (VertexId r = 0; r < g.right_count(); ++r) number(r);

  std::vector<std::uint64_t> row_offsets(g.left_count() + 1, 0);
  for (VertexId l = 0; l < g.left_count(); ++l) {
    row_offsets[l + 1] = row_offsets[l] + g.left_degree(l);
  }
  std::vector<std::uint64_t> fill(row_offsets.begin(), row_offsets.end() - 1);
  std::vector<std::uint32_t> right_ids(row_offsets.back());
  util::NameTable right_names;
  for (VertexId id = 0; id < by_new_id.size(); ++id) {
    right_names.add(g.right_names().name(by_new_id[id]));
    for (const VertexId l : g.right_neighbors(by_new_id[id])) right_ids[fill[l]++] = id;
  }
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
  // The rows are the graph's left rows as they are; assign_rows checks
  // them (offsets, id range, strict order).
  try {
    g.assign_rows(std::vector<std::size_t>(row_offsets.begin(), row_offsets.end()),
                  std::vector<VertexId>(right_ids.begin(), right_ids.end()));
  } catch (const std::invalid_argument& defect) {
    bad_payload(path, defect.what());
  }
  return g;
}

void save_csr_file(const std::string& path, const util::CsrGraph& g) {
  OBS_SPAN("graph.csr.save");
  g.save_file(path);
}

util::CsrGraph load_csr_file(const std::string& path) {
  return util::CsrGraph::load_file(path);
}

}  // namespace dnsembed::graph
