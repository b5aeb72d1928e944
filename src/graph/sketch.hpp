// Sketched one-mode projection: minhash signatures, b-bit LSH banding, and
// exact verification of candidate pairs — the sublinear route to the
// domain-similarity graphs at million-domain scale.
//
// Exact projection costs O(sum over pivots of deg²); this backend instead:
//
//   1. Signatures. Every right vertex d gets a minhash signature
//      sig[d][j] = min over pivots n in N(d) of h_j(n), for k = signature_size
//      independent counter-based hash functions h_j (util::mix64 of
//      (seed, j, n) — no stored permutations). The per-pivot hash rows are
//      precomputed once, and the min-fold runs through the SIMD u32-min
//      kernel, one call per bipartite incidence. P[sig_u[j] == sig_v[j]]
//      equals the Jaccard similarity of N(u), N(v).
//   2. b-bit compression. Only the low `bits` bits of each entry are kept
//      (b-bit minwise hashing): the stored sketch is signature_size bytes
//      per vertex, and equal-entry probability becomes J + (1-J)/2^bits —
//      extra collisions are random and die in verification.
//   3. Banding. The compressed signature is cut into `bands` bands of
//      rows = signature_size / bands entries; vertices agreeing on any
//      whole band become a candidate pair (found by sorting (band-key,
//      vertex) entries, so candidate generation never materializes the
//      non-candidate pair space).
//   4. Verification. Each distinct candidate pair gets its EXACT
//      intersection computed from the sorted bipartite adjacency, so every
//      emitted weight is exact — sketching only decides which pairs are
//      looked at. min_similarity and max_pivot_degree match the exact
//      backend's semantics (hub pivots are excluded from both signatures
//      and intersections).
//   5. Optional top-k pruning keeps the k strongest verified neighbors per
//      vertex (union rule), bounding the output degree.
//
// Determinism: signatures are a pure function of (seed, graph); every
// parallel phase writes disjoint preallocated slots and candidate
// enumeration happens on sorted arrays, so the output is bit-identical for
// every thread count — same contract as the exact engine.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/bipartite.hpp"
#include "graph/projection.hpp"

namespace dnsembed::graph {

/// The b-bit compressed minhash signatures of the right vertices:
/// row-major right_count x signature_size bytes. Vertices with no
/// (eligible) pivots get all-0xFF rows. Exposed for the determinism and
/// parity tests; project_sketched uses it internally.
std::vector<std::uint8_t> minhash_signatures(const BipartiteGraph& g,
                                             const ProjectionOptions& options);

/// Sketched projection onto the right side. Same output contract as the
/// exact engine: edges sorted by (u, v), weights exact for the pairs
/// emitted, deterministic across thread counts. Called by project_right
/// when options.mode == ProjectionMode::kSketched.
ProjectedEdges project_sketched(const BipartiteGraph& g, const ProjectionOptions& options);

}  // namespace dnsembed::graph
