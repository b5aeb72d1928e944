#include "graph/projection.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include <stdexcept>

#include "graph/sketch.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/flat_counter.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace dnsembed::graph {

namespace {

/// Seed of the pair-shard ownership hash (see ProjectionOptions).
constexpr std::uint64_t kPairShardSeed = 0x7061697273ULL;

/// owner[v] for every projection-side vertex, or an empty vector when the
/// projection is unsharded (the common case pays one branch, no table).
template <typename NameFn>
std::vector<std::uint32_t> pair_shard_owners(std::size_t side_count, NameFn&& side_name,
                                             const ProjectionOptions& options) {
  if (options.pair_shard_count <= 1) return {};
  if (options.pair_shard_index >= options.pair_shard_count) {
    throw std::invalid_argument{"projection: pair_shard_index out of range"};
  }
  std::vector<std::uint32_t> owner(side_count);
  for (VertexId v = 0; v < side_count; ++v) {
    owner[v] = static_cast<std::uint32_t>(util::xxhash64(side_name(v), kPairShardSeed) %
                                          options.pair_shard_count);
  }
  return owner;
}

/// Shard for a pair key, derived from the FIRST vertex of the pair only:
/// the inner counting loop emits a run of keys (u, v0..vk) with ascending v
/// for one u, so sharding on u keeps a whole run inside one FlatCounter
/// whose slot_hash probes it sequentially — sharding on the full key would
/// scatter the run across tables and forfeit that locality. mix64's high
/// bits + fastrange keep the shard choice independent of probe slots.
std::size_t shard_of(VertexId u, std::size_t shards) noexcept {
  const std::uint64_t hi = util::mix64(u) >> 32;
  return static_cast<std::size_t>((hi * shards) >> 32);
}

/// Shared implementation: `side_count`/`side_name`/`side_degree` describe
/// the projection side; `pivot_count`/`pivot_neighbors` the opposite side.
///
/// Two-pass sharded counting. Pass 1: each worker scans a contiguous pivot
/// range (ThreadPool::parallel_for chunk) and increments worker-local
/// FlatCounter shards — no two workers ever touch the same table, so the
/// count phase is lock- and atomic-free. Pass 2: each shard index is merged
/// across workers and filtered into per-shard edge vectors, again with
/// disjoint ownership. A final sort by (u, v) — two stable counting passes,
/// by v then by u — makes the output independent of the partition, so any
/// thread count yields the identical graph.
template <typename NameFn, typename DegreeFn, typename PivotNeighborsFn>
WeightedGraph project_impl(std::size_t side_count, NameFn&& side_name, DegreeFn&& side_degree,
                           std::size_t pivot_count, PivotNeighborsFn&& pivot_neighbors,
                           const ProjectionOptions& options) {
  WeightedGraph out;
  for (VertexId v = 0; v < side_count; ++v) out.add_vertex(side_name(v));

  const auto owner = pair_shard_owners(side_count, side_name, options);
  const auto owned = [&](VertexId u) {
    return owner.empty() || owner[u] == options.pair_shard_index;
  };

  std::size_t threads = util::resolve_threads(options.threads);
  threads = std::min(threads, std::max<std::size_t>(1, pivot_count));
  const std::size_t shards = threads;

  // Hot-loop telemetry: one relaxed add per *pivot* (never per pair), so
  // the pair-counting inner loop stays untouched; bench/micro_obs holds the
  // disabled-path overhead under 3%.
  static obs::Counter& pivots_counter = obs::metrics().counter("graph.projection.pivots");
  static obs::Counter& pairs_counter = obs::metrics().counter("graph.projection.pairs");
  static obs::Counter& edges_counter = obs::metrics().counter("graph.projection.edges");
  static obs::Histogram& degree_histogram =
      obs::metrics().histogram("graph.projection.pivot_degree", obs::Registry::size_bounds());

  // Pass 1: count pair intersections into worker-local shards.
  std::vector<std::vector<util::FlatCounter>> local(threads);
  for (auto& w : local) w.resize(shards);
  const auto count_range = [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    OBS_SPAN("graph.projection.count");
    auto& tables = local[worker];
    for (std::size_t pivot = lo; pivot < hi; ++pivot) {
      const auto neighbors = pivot_neighbors(static_cast<VertexId>(pivot));
      pivots_counter.add(1);
      degree_histogram.observe(static_cast<double>(neighbors.size()));
      if (options.max_pivot_degree != 0 && neighbors.size() > options.max_pivot_degree) continue;
      pairs_counter.add(neighbors.size() * (neighbors.size() - 1) / 2);
      constexpr std::size_t kPrefetchDistance = 16;
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        // Pair (neighbors[i], neighbors[j]) with j > i: neighbors[i] is the
        // smaller endpoint, so ownership filters on it alone and a skipped
        // run loses no pair another shard would also count.
        if (!owned(neighbors[i])) continue;
        const std::uint64_t hi_key = static_cast<std::uint64_t>(neighbors[i]) << 32;
        auto& table = tables[shards == 1 ? 0 : shard_of(neighbors[i], shards)];
        // One capacity check per run, not per pair; with the load ensured,
        // the inner loop is hash + probe only, with the slot line fetched
        // kPrefetchDistance keys ahead.
        table.ensure(neighbors.size() - i - 1);
        for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
          if (j + kPrefetchDistance < neighbors.size()) {
            table.prefetch(hi_key | neighbors[j + kPrefetchDistance]);
          }
          table.increment_unchecked(hi_key | neighbors[j]);
        }
      }
    }
  };

  // Pass 2: merge one shard index across all workers, then filter and emit.
  // Each worker owns a contiguous shard range and its own output vector, so
  // the merge pass is as lock-free as the count pass.
  static obs::Counter& merge_keys_counter = obs::metrics().counter("graph.projection.merge_keys");
  std::vector<std::vector<WeightedEdge>> shard_edges(shards);
  const auto emit_shards = [&](std::size_t lo, std::size_t hi, std::size_t) {
    OBS_SPAN("graph.projection.emit");
    for (std::size_t s = lo; s < hi; ++s) {
      // Size-aware merge: steal the LARGEST worker table as the base so the
      // per-key reinsert cost is the sum of the SMALLER tables only, and
      // reserve the worst-case union up front so the base rehashes at most
      // once. (Starting blindly from worker 0 meant re-inserting nearly
      // every key whenever a later worker held the dominant table, plus one
      // rehash per doubling as the merge grew it.)
      std::size_t base = 0;
      std::size_t total = 0;
      for (std::size_t w = 0; w < local.size(); ++w) {
        total += local[w][s].size();
        if (local[w][s].size() > local[base][s].size()) base = w;
      }
      util::FlatCounter merged = std::move(local[base][s]);
      merged.reserve(total);
      std::size_t reinserted = 0;
      for (std::size_t w = 0; w < local.size(); ++w) {
        if (w == base) continue;
        reinserted += local[w][s].size();
        merged.merge_from(std::move(local[w][s]));
      }
      merge_keys_counter.add(reinserted);
      auto& edges = shard_edges[s];
      edges.reserve(merged.size());
      merged.for_each([&](std::uint64_t key, std::uint32_t inter) {
        const auto u = static_cast<VertexId>(key >> 32);
        const auto v = static_cast<VertexId>(key & 0xFFFFFFFFu);
        const double similarity =
            set_similarity(options.measure, inter, side_degree(u), side_degree(v));
        if (similarity >= options.min_similarity && similarity > 0.0) {
          edges.push_back({u, v, similarity});
        }
      });
    }
  };

  if (threads == 1) {
    count_range(0, pivot_count, 0);
    emit_shards(0, shards, 0);
  } else {
    util::ThreadPool pool{threads};
    pool.parallel_for(0, pivot_count, count_range);
    pool.parallel_for(0, shards, emit_shards);
  }

  // Emit in packed-key (u << 32 | v) order: two stable counting passes,
  // by v and then by u. Keys are unique, so this is exactly the order a
  // comparison sort on (u, v) gives.
  OBS_SPAN("graph.projection.sort");
  const auto scatter_by = [side_count](auto key, std::span<const std::vector<WeightedEdge>> in,
                                       std::vector<WeightedEdge>& dst) {
    std::vector<std::size_t> next(side_count + 1, 0);
    for (const auto& edges : in) {
      for (const auto& e : edges) ++next[key(e) + 1];
    }
    for (std::size_t x = 0; x < side_count; ++x) next[x + 1] += next[x];
    dst.resize(next[side_count]);
    for (const auto& edges : in) {
      for (const auto& e : edges) dst[next[key(e)]++] = e;
    }
  };
  std::vector<WeightedEdge> by_v;
  scatter_by([](const WeightedEdge& e) { return e.v; }, shard_edges, by_v);
  shard_edges = {};
  std::vector<WeightedEdge> sorted;
  scatter_by([](const WeightedEdge& e) { return e.u; }, {&by_v, 1}, sorted);
  by_v = {};
  std::vector<std::size_t> degrees(side_count, 0);
  for (const auto& e : sorted) {
    ++degrees[e.u];
    ++degrees[e.v];
  }
  out.reserve(degrees, sorted.size());
  for (const auto& e : sorted) out.add_edge_unchecked(e.u, e.v, e.weight);
  edges_counter.add(sorted.size());
  return out;
}

/// Baseline: one global node-based map, pivots scanned in order.
template <typename NameFn, typename DegreeFn, typename PivotNeighborsFn>
WeightedGraph project_reference_impl(std::size_t side_count, NameFn&& side_name,
                                     DegreeFn&& side_degree, std::size_t pivot_count,
                                     PivotNeighborsFn&& pivot_neighbors,
                                     const ProjectionOptions& options) {
  WeightedGraph out;
  for (VertexId v = 0; v < side_count; ++v) out.add_vertex(side_name(v));

  const auto owner = pair_shard_owners(side_count, side_name, options);
  std::unordered_map<std::uint64_t, std::uint32_t> intersections;
  for (VertexId pivot = 0; pivot < pivot_count; ++pivot) {
    const auto neighbors = pivot_neighbors(pivot);
    if (options.max_pivot_degree != 0 && neighbors.size() > options.max_pivot_degree) continue;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (!owner.empty() && owner[neighbors[i]] != options.pair_shard_index) continue;
      const std::uint64_t hi = static_cast<std::uint64_t>(neighbors[i]) << 32;
      for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
        ++intersections[hi | neighbors[j]];
      }
    }
  }

  for (const auto& [key, inter] : intersections) {
    const auto u = static_cast<VertexId>(key >> 32);
    const auto v = static_cast<VertexId>(key & 0xFFFFFFFFu);
    const double similarity =
        set_similarity(options.measure, inter, side_degree(u), side_degree(v));
    if (similarity >= options.min_similarity && similarity > 0.0) {
      out.add_edge_unchecked(u, v, similarity);
    }
  }
  return out;
}

}  // namespace

WeightedGraph project_right(const BipartiteGraph& g, const ProjectionOptions& options) {
  if (options.mode == ProjectionMode::kSketched) {
    if (options.pair_shard_count > 1) {
      throw std::invalid_argument{"projection: pair shards require exact mode"};
    }
    return project_sketched(g, /*right_side=*/true, options);
  }
  return project_impl(
      g.right_count(), [&g](VertexId v) -> const std::string& { return g.right_names().name(v); },
      [&g](VertexId v) { return g.right_degree(v); }, g.left_count(),
      [&g](VertexId p) { return g.left_neighbors(p); }, options);
}

WeightedGraph project_left(const BipartiteGraph& g, const ProjectionOptions& options) {
  if (options.mode == ProjectionMode::kSketched) {
    if (options.pair_shard_count > 1) {
      throw std::invalid_argument{"projection: pair shards require exact mode"};
    }
    return project_sketched(g, /*right_side=*/false, options);
  }
  return project_impl(
      g.left_count(), [&g](VertexId v) -> const std::string& { return g.left_names().name(v); },
      [&g](VertexId v) { return g.left_degree(v); }, g.right_count(),
      [&g](VertexId p) { return g.right_neighbors(p); }, options);
}

WeightedGraph project_right_reference(const BipartiteGraph& g, const ProjectionOptions& options) {
  return project_reference_impl(
      g.right_count(), [&g](VertexId v) -> const std::string& { return g.right_names().name(v); },
      [&g](VertexId v) { return g.right_degree(v); }, g.left_count(),
      [&g](VertexId p) { return g.left_neighbors(p); }, options);
}

}  // namespace dnsembed::graph
