// One-mode projection of a bipartite graph onto one vertex set with Jaccard
// similarity weights (paper Eq. 1-3):
//
//   sim(d_i, d_j) = |N(d_i) ∩ N(d_j)| / |N(d_i) ∪ N(d_j)|
//
// where N(d) is the set of opposite-side neighbors. The pipeline keeps
// domains on the RIGHT side of every bipartite graph (hosts x domains,
// IPs x domains, minutes x domains), so project_right() yields the three
// domain similarity graphs; project_left() gives e.g. host similarity
// (shared domain interests, Fig. 3c).
//
// Algorithm: row-wise pair counting (Gustavson's sparse product, upper
// triangle). For each side vertex u in id order, every pivot p in N(u) on
// the opposite side adds one to a dense counter acc[v] for each v in N(p)
// with v > u; Jaccard follows from acc[v] and the two degrees. Cost is sum
// over pivots of deg², so an optional max_pivot_degree cap skips hub
// pivots (which contribute near-zero similarity anyway but dominate cost).
//
// Engine: each row is emitted in ascending v as soon as it is counted (a
// scan of acc[u+1 .. n) for a dense row, a sort of the touched list for a
// sparse one), so the edges come out (u, v)-sorted with no hash table and
// no sort pass. Workers take contiguous row ranges cut at equal pair work,
// each with its own accumulator, and their outputs are concatenated in
// range order: intersection counts are exact integers, so the output is
// identical for every thread count. project_right_csr hands the sorted
// arrays straight to util::CsrGraph::build, the form `run` saves.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "graph/bipartite.hpp"
#include "graph/weighted_graph.hpp"
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
/// Shared by the exact engine and the sketched backend's verification pass,
/// so both emit bit-identical weights for the same pair.
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

/// Projection backend.
enum class ProjectionMode {
  /// Inverted-index pair counting — every co-occurring pair is counted, so
  /// every similarity is exact. O(sum over pivots of deg²).
  kExact,
  /// Minhash signatures + b-bit LSH banding generate candidate pairs, then
  /// only candidates are verified with exact intersections (graph/sketch):
  /// sublinear in the pair count, the million-domain route. Emitted weights
  /// are exact; pairs the sketch misses (probability falls with signature
  /// size) are absent, so the result is a high-recall subgraph.
  kSketched,
};

/// Minhash/LSH parameters for ProjectionMode::kSketched.
struct SketchOptions {
  /// Minhash functions per vertex (the signature length k). Recall of a
  /// pair with Jaccard J under banding is 1 - (1 - J^rows)^bands with
  /// rows = signature_size / bands.
  /// The default (64, 32) gives rows = 2 per band: candidate recall is
  /// effectively total above J ~ 0.3 at 64 bytes/vertex. Raise
  /// signature_size at fixed bands (rows = 4+) for high-precision floors
  /// where sub-0.5 similarities should not even become candidates.
  std::size_t signature_size = 64;

  /// LSH bands. Two vertices become a candidate pair when any band of
  /// their compressed signatures collides. Must be <= signature_size;
  /// signature entries beyond bands * (signature_size / bands) are unused.
  std::size_t bands = 32;

  /// b-bit minwise compression: low bits kept per signature entry before
  /// banding (1..8). Smaller b shrinks the stored sketch and adds only
  /// random single-band collisions, which verification filters out.
  std::size_t bits = 8;

  /// Keep at most this many strongest neighbors per vertex after
  /// verification (0 = keep all). An edge survives when it ranks in the
  /// top-k of EITHER endpoint (kNN-graph union rule).
  std::size_t top_k = 0;

  /// Seed of the counter-based hash family; same seed -> bit-identical
  /// signatures, candidates, and output at every thread count.
  std::uint64_t seed = 0x5eed5eedULL;
};

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
  /// thread, 0 = one per hardware thread. The result is deterministic —
  /// the same WeightedGraph (same edges, same order) for every value.
  std::size_t threads = 1;

  /// Backend: exact pair counting or sketched candidate generation. Fields
  /// below are appended so existing designated initializers keep working.
  ProjectionMode mode = ProjectionMode::kExact;

  /// Parameters of the sketched backend (ignored when mode == kExact).
  SketchOptions sketch;

  /// Pair-shard partition for multi-process projection: only pairs OWNED by
  /// shard pair_shard_index out of pair_shard_count are counted and
  /// emitted. A pair (u, v), u < v, is owned by xxhash64(name(u)) %
  /// pair_shard_count — a function of the vertex NAME, so the partition is
  /// stable across runs and worker counts. Shards are disjoint and
  /// exhaustive, and each shard still sees full pivot neighborhoods (only
  /// the smaller endpoint is filtered), so intersection counts and degrees
  /// are exact: the union of the per-shard edge lists, re-sorted by (u, v),
  /// is bit-identical to an unsharded projection. Exact mode only; the
  /// supervisor falls back to one shard per channel for kSketched.
  std::size_t pair_shard_index = 0;
  std::size_t pair_shard_count = 1;
};

/// Project onto the right vertex set. Every right vertex appears in the
/// result (possibly isolated); result vertex ids equal the bipartite right
/// ids and names are preserved. Edges are emitted sorted by (u, v).
WeightedGraph project_right(const BipartiteGraph& g, const ProjectionOptions& options = {});

/// Project onto the left vertex set (ids equal the bipartite left ids).
WeightedGraph project_left(const BipartiteGraph& g, const ProjectionOptions& options = {});

/// project_right in the CSR arena form, built from the projection's sorted
/// edge arrays without a WeightedGraph: the same payload as
/// to_csr(project_right(g, options)).
util::CsrGraph project_right_csr(const BipartiteGraph& g, const ProjectionOptions& options = {});

/// Single-threaded std::unordered_map baseline, kept as the correctness
/// reference for the row-wise engine (tests compare edge-for-edge after
/// sorting) and as the benchmark baseline. Ignores options.threads; edge
/// order follows map iteration order.
WeightedGraph project_right_reference(const BipartiteGraph& g,
                                      const ProjectionOptions& options = {});

}  // namespace dnsembed::graph
