// Edge-list persistence for graphs (CSV): lets the CLI materialize the
// bipartite graphs and similarity graphs for inspection in other tools
// (gephi, networkx, spreadsheets) and round-trip bipartite graphs in tests.
// The pipeline's durable forms are binary arenas (util/csr.hpp).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/bipartite.hpp"
#include "util/csr.hpp"

namespace dnsembed::graph {

/// "left,right" rows, one per distinct edge, with a header line.
void save_bipartite_csv(std::ostream& out, const BipartiteGraph& g);

/// Parse back; throws std::runtime_error on malformed rows. Result is
/// finalized.
BipartiteGraph load_bipartite_csv(std::istream& in);

/// A similarity graph as "u,v,weight" rows in (u, v) order, one per edge
/// (CsrGraph::for_each_edge), then its isolated vertices as "name,," rows.
void save_weighted_csv(std::ostream& out, const util::CsrGraph& g);

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
// with a memory-mapped zero-copy load path: the similarity graph's one
// form, in memory and on disk. Weights round-trip by bit pattern (raw f64
// sections), so a reloaded graph reproduces embeddings bit-identically.

/// Atomic checksummed save (traced as span "graph.csr.save") / mmap
/// zero-copy load of the CSR form.
void save_csr_file(const std::string& path, const util::CsrGraph& g);
util::CsrGraph load_csr_file(const std::string& path);

}  // namespace dnsembed::graph
