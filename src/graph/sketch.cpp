#include "graph/sketch.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/flat_counter.hpp"
#include "util/hash.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dnsembed::graph {

namespace {

/// Buckets larger than this are skipped instead of expanded into pairs: a
/// bucket of m vertices costs m² candidate emissions, and buckets this big
/// only arise from near-duplicate hub cliques or degenerate band keys whose
/// pairs would be found through other bands anyway.
constexpr std::size_t kMaxBucketVertices = 2048;

/// Sentinel band key for vertices with no eligible pivots: their rows never
/// enter a bucket (otherwise every empty vertex would collide with every
/// other one and form a giant candidate clique).
constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/// A verified candidate pair (weight 0 = rejected).
struct Edge {
  VertexId u = 0;
  VertexId v = 0;
  double weight = 0.0;
};

void validate_sketch_options(const SketchOptions& s) {
  if (s.signature_size == 0) {
    throw std::invalid_argument{"sketch: signature_size must be at least 1"};
  }
  if (s.bands == 0 || s.bands > s.signature_size) {
    throw std::invalid_argument{"sketch: bands must be in [1, signature_size]"};
  }
  if (s.bits == 0 || s.bits > 8) {
    throw std::invalid_argument{"sketch: bits must be in [1, 8]"};
  }
}

/// Run fn over [0, count) — inline when the caller resolved a single
/// thread, else through the pool. fn(lo, hi, worker) with worker < threads.
template <typename Fn>
void run_ranges(util::ThreadPool* pool, std::size_t count, const Fn& fn) {
  if (pool == nullptr) {
    fn(0, count, 0);
  } else {
    pool->parallel_for(0, count, fn);
  }
}

struct Sketch {
  /// Row-major side_count x signature_size b-bit compressed entries.
  std::vector<std::uint8_t> sig;
  /// Eligible (non-hub) pivot count per side vertex; 0 means the vertex
  /// never enters banding.
  std::vector<std::uint32_t> eligible;
};

Sketch compute_sketch(const BipartiteGraph& g, const ProjectionOptions& options,
                      util::ThreadPool* pool, std::size_t threads) {
  OBS_SPAN("graph.sketch.sign");
  const SketchOptions& s = options.sketch;
  const std::size_t k = s.signature_size;
  const std::size_t side_count = g.right_count();
  const std::size_t pivot_count = g.left_count();

  const auto hub = [&](VertexId p) {
    return options.max_pivot_degree != 0 && g.left_degree(p) > options.max_pivot_degree;
  };

  // Counter-based hash family: h_j(p) = low32(mix64(seed_j ^ mix64(p + 1))).
  // No stored permutations — the whole family is a function of the seed, so
  // signatures are reproducible from (seed, graph) alone.
  std::vector<std::uint64_t> seeds(k);
  for (std::size_t j = 0; j < k; ++j) seeds[j] = util::mix64(s.seed + j + 1);

  // Per-pivot hash rows, precomputed once so the signature fold below is one
  // SIMD min pass per bipartite incidence. Hub pivots keep a zero row that
  // is never read.
  std::vector<std::uint32_t> hash_rows(pivot_count * k);
  run_ranges(pool, pivot_count, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t p = lo; p < hi; ++p) {
      if (hub(static_cast<VertexId>(p))) continue;
      const std::uint64_t mixed_pivot = util::mix64(static_cast<std::uint64_t>(p) + 1);
      std::uint32_t* row = hash_rows.data() + p * k;
      for (std::size_t j = 0; j < k; ++j) {
        row[j] = static_cast<std::uint32_t>(util::mix64(seeds[j] ^ mixed_pivot));
      }
    }
  });

  // Domain-major fold: each worker owns a contiguous vertex range and a
  // private scratch row, so the pass is race-free and the result depends
  // only on (seed, graph) — bit-identical at every thread count.
  Sketch out;
  out.sig.assign(side_count * k, 0xFF);
  out.eligible.assign(side_count, 0);
  const std::uint32_t mask = s.bits == 8 ? 0xFFu : ((1u << s.bits) - 1u);
  std::vector<std::vector<std::uint32_t>> scratch(threads, std::vector<std::uint32_t>(k));
  run_ranges(pool, side_count, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    std::uint32_t* row = scratch[worker].data();
    for (std::size_t d = lo; d < hi; ++d) {
      std::uint32_t eligible = 0;
      std::fill(row, row + k, 0xFFFFFFFFu);
      for (const VertexId p : g.right_neighbors(static_cast<VertexId>(d))) {
        if (hub(p)) continue;
        util::simd::min_u32(hash_rows.data() + static_cast<std::size_t>(p) * k, row, k);
        ++eligible;
      }
      out.eligible[d] = eligible;
      if (eligible == 0) continue;  // keep the all-0xFF marker row
      std::uint8_t* dst = out.sig.data() + d * k;
      for (std::size_t j = 0; j < k; ++j) {
        dst[j] = static_cast<std::uint8_t>(row[j] & mask);
      }
    }
  });
  return out;
}

struct BandEntry {
  std::uint64_t key;
  std::uint32_t vertex;
};

/// Distinct candidate pairs packed as (u << 32) | v with u < v, sorted.
std::vector<std::uint64_t> band_candidates(const Sketch& sketch, const SketchOptions& s,
                                           std::size_t side_count, util::ThreadPool* pool) {
  OBS_SPAN("graph.sketch.band");
  static obs::Counter& candidates_counter = obs::metrics().counter("graph.sketch.candidates");
  static obs::Counter& oversize_counter = obs::metrics().counter("graph.sketch.oversize_buckets");

  const std::size_t k = s.signature_size;
  const std::size_t rows = k / s.bands;

  // One entry per (vertex, band), laid out band-major so each band owns a
  // contiguous shard; ineligible vertices get the sentinel key so they sort
  // to the end and are skipped by the bucket scan.
  std::vector<BandEntry> entries(side_count * s.bands);
  run_ranges(pool, side_count, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t d = lo; d < hi; ++d) {
      if (sketch.eligible[d] == 0) {
        for (std::size_t b = 0; b < s.bands; ++b) {
          entries[b * side_count + d] = {kNoKey, static_cast<std::uint32_t>(d)};
        }
        continue;
      }
      const std::uint8_t* sig = sketch.sig.data() + d * k;
      for (std::size_t b = 0; b < s.bands; ++b) {
        // Band index folded into the hash seed: equal byte runs in
        // DIFFERENT bands must not land in the same bucket.
        const std::string_view slice{reinterpret_cast<const char*>(sig + b * rows), rows};
        std::uint64_t key = util::xxhash64(slice, util::mix64(s.seed ^ (b + 1)));
        if (key == kNoKey) --key;  // keep the sentinel unambiguous
        entries[b * side_count + d] = {key, static_cast<std::uint32_t>(d)};
      }
    }
  });

  // Per-band shard sort + k-way merge instead of one global sort: the shards
  // sort in parallel and the merge is a linear pass over a bands-sized heap.
  // Each shard's contents are a pure function of (seed, graph) and the merge
  // comparator (key, vertex, band) is a total order, so the merged sequence
  // is bit-identical at any thread count.
  const auto entry_less = [](const BandEntry& a, const BandEntry& b) {
    return a.key != b.key ? a.key < b.key : a.vertex < b.vertex;
  };
  run_ranges(pool, s.bands, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t b = lo; b < hi; ++b) {
      std::sort(entries.begin() + b * side_count, entries.begin() + (b + 1) * side_count,
                entry_less);
    }
  });

  std::vector<BandEntry> merged;
  merged.reserve(entries.size());
  {
    struct Head {
      BandEntry entry;
      std::uint32_t band;
      std::size_t cursor;  // index of the NEXT entry in this band's shard
    };
    // Max-heap with an inverted comparator pops the smallest head; the band
    // index breaks (key, vertex) ties so the heap order is total.
    const auto head_greater = [](const Head& a, const Head& b) {
      if (a.entry.key != b.entry.key) return a.entry.key > b.entry.key;
      if (a.entry.vertex != b.entry.vertex) return a.entry.vertex > b.entry.vertex;
      return a.band > b.band;
    };
    std::vector<Head> heap;
    heap.reserve(s.bands);
    for (std::size_t b = 0; b < s.bands; ++b) {
      if (side_count == 0) break;
      heap.push_back({entries[b * side_count], static_cast<std::uint32_t>(b),
                      b * side_count + 1});
    }
    std::make_heap(heap.begin(), heap.end(), head_greater);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), head_greater);
      Head head = heap.back();
      heap.pop_back();
      merged.push_back(head.entry);
      const std::size_t shard_end = (static_cast<std::size_t>(head.band) + 1) * side_count;
      if (head.cursor < shard_end) {
        heap.push_back({entries[head.cursor], head.band, head.cursor + 1});
        std::push_heap(heap.begin(), heap.end(), head_greater);
      }
    }
  }
  entries = std::move(merged);

  // Bucket scan: each run of equal keys is one LSH bucket; every distinct
  // vertex pair inside it becomes a candidate (deduplicated across bands by
  // the FlatCounter — a pair colliding in three bands is verified once).
  util::FlatCounter pairs;
  std::size_t run_start = 0;
  while (run_start < entries.size()) {
    const std::uint64_t key = entries[run_start].key;
    std::size_t run_end = run_start + 1;
    while (run_end < entries.size() && entries[run_end].key == key) ++run_end;
    const std::size_t m = run_end - run_start;
    if (key != kNoKey && m >= 2) {
      if (m > kMaxBucketVertices) {
        oversize_counter.add(1);
      } else {
        for (std::size_t i = run_start; i < run_end; ++i) {
          const std::uint64_t hi_key = static_cast<std::uint64_t>(entries[i].vertex) << 32;
          for (std::size_t j = i + 1; j < run_end; ++j) {
            if (entries[j].vertex == entries[i].vertex) continue;  // cross-band key collision
            pairs.increment(hi_key | entries[j].vertex);
          }
        }
      }
    }
    run_start = run_end;
  }

  std::vector<std::uint64_t> candidates;
  candidates.reserve(pairs.size());
  pairs.for_each([&](std::uint64_t key, std::uint32_t) { candidates.push_back(key); });
  std::sort(candidates.begin(), candidates.end());
  candidates_counter.add(candidates.size());
  return candidates;
}

/// Keep an edge when it ranks in the top-k strongest of EITHER endpoint
/// (kNN-graph union rule). Ties broken by neighbor id, so the prune is
/// deterministic. Preserves the incoming edge order.
void prune_top_k(std::vector<Edge>& edges, std::size_t side_count, std::size_t top_k) {
  std::vector<std::vector<std::uint32_t>> incident(side_count);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    incident[edges[i].u].push_back(static_cast<std::uint32_t>(i));
    incident[edges[i].v].push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<char> keep(edges.size(), 0);
  for (std::size_t v = 0; v < side_count; ++v) {
    auto& list = incident[v];
    const auto other = [&](std::uint32_t idx) {
      return edges[idx].u == v ? edges[idx].v : edges[idx].u;
    };
    const std::size_t kept = std::min(top_k, list.size());
    std::partial_sort(list.begin(), list.begin() + kept, list.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                        if (edges[a].weight != edges[b].weight) {
                          return edges[a].weight > edges[b].weight;
                        }
                        return other(a) < other(b);
                      });
    for (std::size_t i = 0; i < kept; ++i) keep[list[i]] = 1;
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (keep[i]) edges[w++] = edges[i];
  }
  edges.resize(w);
}

}  // namespace

std::vector<std::uint8_t> minhash_signatures(const BipartiteGraph& g,
                                             const ProjectionOptions& options) {
  validate_sketch_options(options.sketch);
  std::size_t threads = util::resolve_threads(options.threads);
  threads = std::min(threads, std::max<std::size_t>(1, g.right_count()));
  if (threads == 1) {
    return compute_sketch(g, options, nullptr, 1).sig;
  }
  util::ThreadPool pool{threads};
  return compute_sketch(g, options, &pool, pool.size()).sig;
}

ProjectedEdges project_sketched(const BipartiteGraph& g, const ProjectionOptions& options) {
  validate_sketch_options(options.sketch);
  const std::size_t side_count = g.right_count();

  std::size_t threads = util::resolve_threads(options.threads);
  threads = std::min(threads, std::max<std::size_t>(1, side_count));
  util::ThreadPool* pool = nullptr;
  std::optional<util::ThreadPool> owned_pool;
  if (threads > 1) {
    owned_pool.emplace(threads);
    pool = &*owned_pool;
    threads = pool->size();
  }

  const Sketch sketch = compute_sketch(g, options, pool, threads);
  const std::vector<std::uint64_t> candidates =
      band_candidates(sketch, options.sketch, side_count, pool);

  // Verification: exact intersection over the sorted bipartite adjacency,
  // only for candidate pairs. Each candidate writes its own preallocated
  // slot (weight 0 = rejected), so the pass is parallel yet deterministic.
  static obs::Counter& verified_counter = obs::metrics().counter("graph.sketch.verified");
  static obs::Counter& edges_counter = obs::metrics().counter("graph.sketch.edges");
  std::vector<Edge> verified(candidates.size());
  run_ranges(pool, candidates.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
    OBS_SPAN("graph.sketch.verify");
    for (std::size_t i = lo; i < hi; ++i) {
      const auto u = static_cast<VertexId>(candidates[i] >> 32);
      const auto v = static_cast<VertexId>(candidates[i] & 0xFFFFFFFFu);
      const auto nu = g.right_neighbors(u);
      const auto nv = g.right_neighbors(v);
      // Two-pointer intersection; hub pivots are excluded from the count
      // (matching the exact engine, which never visits them) while the
      // denominators stay the FULL degrees — same lower-bound semantics.
      std::size_t inter = 0;
      std::size_t a = 0;
      std::size_t b = 0;
      while (a < nu.size() && b < nv.size()) {
        if (nu[a] < nv[b]) {
          ++a;
        } else if (nv[b] < nu[a]) {
          ++b;
        } else {
          if (options.max_pivot_degree == 0 ||
              g.left_degree(nu[a]) <= options.max_pivot_degree) {
            ++inter;
          }
          ++a;
          ++b;
        }
      }
      if (inter == 0) continue;
      const double similarity =
          set_similarity(options.measure, inter, g.right_degree(u), g.right_degree(v));
      if (similarity >= options.min_similarity && similarity > 0.0) {
        verified[i] = {u, v, similarity};
      }
    }
  });
  verified_counter.add(candidates.size());

  // Candidates were sorted by packed (u, v), and both the compaction and the
  // top-k prune preserve order, so the emitted edges are already (u, v)
  // sorted — the same output contract as the exact engine.
  std::vector<Edge> edges;
  edges.reserve(verified.size());
  for (const Edge& e : verified) {
    if (e.weight > 0.0) edges.push_back(e);
  }
  if (options.sketch.top_k != 0) {
    prune_top_k(edges, side_count, options.sketch.top_k);
  }
  ProjectedEdges out;
  out.u.reserve(edges.size());
  out.v.reserve(edges.size());
  out.w.reserve(edges.size());
  for (const Edge& e : edges) {
    out.u.push_back(e.u);
    out.v.push_back(e.v);
    out.w.push_back(e.weight);
  }
  edges_counter.add(edges.size());
  return out;
}

}  // namespace dnsembed::graph
