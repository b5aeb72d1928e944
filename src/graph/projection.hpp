// One-mode projection of a bipartite graph onto its right vertex set with
// Jaccard similarity weights (paper Eq. 1-3):
//
//   sim(d_i, d_j) = |N(d_i) ∩ N(d_j)| / |N(d_i) ∪ N(d_j)|
//
// where N(d) is the set of left neighbors. The pipeline keeps domains on
// the RIGHT side of every bipartite graph (hosts x domains, IPs x domains,
// minutes x domains), so project_right() yields the three domain
// similarity graphs.
//
// Algorithm: row-wise pair counting (Gustavson's sparse product, upper
// triangle). For each right vertex u in id order, every pivot p in N(u)
// adds one to a dense counter acc[v] for each v in N(p) with v > u;
// Jaccard follows from acc[v] and the two degrees. Cost is sum over pivots
// of deg², so an optional max_pivot_degree cap skips hub pivots (which
// contribute near-zero similarity anyway but dominate cost).
//
// Engine: each row is emitted in ascending v as soon as it is counted (a
// scan of acc[u+1 .. n) for a dense row, a sort of the touched list for a
// sparse one), so the edges come out (u, v)-sorted with no hash table and
// no sort pass. Workers take contiguous row ranges cut at equal pair work,
// each with its own accumulator, and their outputs are concatenated in
// range order: intersection counts are exact integers, so the output is
// identical for every thread count. The sorted edge arrays go straight to
// util::CsrGraph::build: the similarity graph is the CSR arena, in memory
// and on disk.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "graph/bipartite.hpp"
#include "util/csr.hpp"

namespace dnsembed::graph {

/// Set-similarity measure for the projection weight. The paper uses
/// Jaccard (Eq. 1-3); cosine and overlap are ablation alternatives.
enum class SimilarityMeasure {
  kJaccard,  // |A ∩ B| / |A ∪ B|
  kCosine,   // |A ∩ B| / sqrt(|A| |B|)
  kOverlap,  // |A ∩ B| / min(|A|, |B|)
};

/// Similarity from an exact intersection count and the two set sizes.
/// Shared by the row-wise engine and the map-based reference, so both emit
/// bit-identical weights for the same pair.
inline double set_similarity(SimilarityMeasure measure, std::size_t inter, std::size_t deg_u,
                             std::size_t deg_v) noexcept {
  switch (measure) {
    case SimilarityMeasure::kJaccard:
      return static_cast<double>(inter) / static_cast<double>(deg_u + deg_v - inter);
    case SimilarityMeasure::kCosine:
      return static_cast<double>(inter) /
             std::sqrt(static_cast<double>(deg_u) * static_cast<double>(deg_v));
    case SimilarityMeasure::kOverlap:
      return static_cast<double>(inter) / static_cast<double>(std::min(deg_u, deg_v));
  }
  return 0.0;
}

struct ProjectionOptions {
  SimilarityMeasure measure = SimilarityMeasure::kJaccard;

  /// Edges with similarity strictly below this are dropped.
  /// 0 keeps every pair with a non-empty intersection.
  double min_similarity = 0.0;

  /// Skip pivot vertices with more neighbors than this (0 = unlimited).
  /// When pivots are skipped the similarity is a lower bound; with the
  /// paper's pruning rules applied hubs are already gone, so the default
  /// keeps exact Jaccard.
  std::size_t max_pivot_degree = 0;

  /// Worker threads for pair counting: 1 = run inline on the calling
  /// thread, 0 = one per CPU of the affinity mask (util::resolve_threads).
  /// The result is deterministic — the same CsrGraph (same edges, same
  /// order) for every value.
  std::size_t threads = 1;
};

/// Project onto the right vertex set. Every right vertex appears in the
/// result (possibly isolated); result vertex ids equal the bipartite right
/// ids and names are preserved. Edges are kept in (u, v) order.
util::CsrGraph project_right(const BipartiteGraph& g, const ProjectionOptions& options = {});

/// Single-threaded std::unordered_map baseline, kept as the correctness
/// reference for the row-wise engine (tests compare the two edge for edge)
/// and as the benchmark baseline. Ignores options.threads; it hands the
/// edges to util::CsrGraph::build in map iteration order.
util::CsrGraph project_right_reference(const BipartiteGraph& g,
                                       const ProjectionOptions& options = {});

}  // namespace dnsembed::graph
