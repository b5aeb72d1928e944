#include "graph/io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

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

constexpr std::string_view kBipartiteKind = "bipartite-graph";

[[noreturn]] void bad_payload(const std::string& context, std::string reason) {
  util::fsio::note_corrupt_detected();
  throw util::CorruptArtifact{context, std::move(reason)};
}

}  // namespace

void save_bipartite_file(const std::string& path, const BipartiteGraph& g) {
  std::ostringstream payload;
  save_bipartite_csv(payload, g);
  util::save_artifact(path, kBipartiteKind, payload.str());
}

BipartiteGraph load_bipartite_file(const std::string& path) {
  std::istringstream payload{util::load_artifact(path, kBipartiteKind)};
  try {
    return load_bipartite_csv(payload);
  } catch (const std::runtime_error& e) {
    bad_payload(path, e.what());
  }
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
  return util::CsrGraph::build(g.vertex_count(), edge_u, edge_v, edge_w, g.names().names());
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

void save_csr_file(const std::string& path, const WeightedGraph& g) {
  to_csr(g).save_file(path);
}

util::CsrGraph load_csr_file(const std::string& path) {
  return util::CsrGraph::load_file(path);
}

}  // namespace dnsembed::graph
