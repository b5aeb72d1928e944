// Edge-list persistence for graphs (CSV): lets the CLI materialize the
// bipartite graphs and similarity graphs for inspection in other tools
// (gephi, networkx, spreadsheets) and round-trip them in tests. The
// pipeline's durable forms are binary arenas (util/csr.hpp).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/bipartite.hpp"
#include "graph/weighted_graph.hpp"
#include "util/csr.hpp"

namespace dnsembed::graph {

/// "left,right" rows, one per distinct edge, with a header line.
void save_bipartite_csv(std::ostream& out, const BipartiteGraph& g);

/// Parse back; throws std::runtime_error on malformed rows. Result is
/// finalized.
BipartiteGraph load_bipartite_csv(std::istream& in);

/// "u,v,weight" rows plus isolated vertices as "name,," rows.
void save_weighted_csv(std::ostream& out, const WeightedGraph& g);

WeightedGraph load_weighted_csv(std::istream& in);

// --- Durable artifact forms (crash-safe file persistence). The CSV
// stream forms above are the human/interop format (gephi, spreadsheets);
// the artifact forms below are the pipeline's durable intermediates:
// checksummed containers written atomically.

inline constexpr std::string_view kBipartiteArenaKind = "bipartite-arena";

/// The bipartite arena (kind kBipartiteArenaKind): the left and right name
/// tables, left-major row offsets and each row's right ids, ascending.
/// Right vertices are numbered in first appearance of a left-major scan,
/// so a loaded graph has the ids load_bipartite_csv(save_bipartite_csv(g))
/// gives; unlike the CSV, the arena keeps vertices without edges. Written
/// in one buffer, atomically. load maps and validates it (counts, offsets
/// monotone and in range, right ids in range, rows strictly ascending,
/// names distinct) and throws util::CorruptArtifact on any defect,
/// util::fsio::IoError on an unreadable path. The result is finalized.
void save_bipartite_file(const std::string& path, const BipartiteGraph& g);
BipartiteGraph load_bipartite_file(const std::string& path);

// --- CSR arena forms (util/csr.hpp). Binary struct-of-arrays payloads
// with a memory-mapped zero-copy load path: the durable similarity-graph
// format at million-domain scale. Weights round-trip by bit pattern (raw
// f64 sections), so a reloaded graph reproduces embeddings bit-identically.

/// Convert to the CSR arena form. Edge order is preserved (LINE's edge
/// sampler addresses edges positionally).
util::CsrGraph to_csr(const WeightedGraph& g);

/// Materialize a mutable WeightedGraph from a CSR arena (CSV export and
/// other interop paths; the pipeline itself consumes CsrGraph directly).
WeightedGraph from_csr(const util::CsrGraph& g);

/// Atomic checksummed save / mmap zero-copy load of the CSR form. The
/// WeightedGraph save consumes `g`: its adjacency is freed once the arena is
/// built, before the container is. Both saves are traced as span
/// "graph.csr.save".
void save_csr_file(const std::string& path, WeightedGraph g);
void save_csr_file(const std::string& path, const util::CsrGraph& g);
util::CsrGraph load_csr_file(const std::string& path);

}  // namespace dnsembed::graph
