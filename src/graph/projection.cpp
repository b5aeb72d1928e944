#include "graph/projection.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace dnsembed::graph {

namespace {

/// A projection's edges as (u, v)-sorted struct-of-arrays, the form
/// util::CsrGraph::build takes.
struct ProjectedEdges {
  std::vector<std::uint32_t> u;
  std::vector<std::uint32_t> v;
  std::vector<double> w;
};

/// The exact projection of `g` onto its right side.
///
/// Row-wise counting (Gustavson's sparse product, upper triangle): for each
/// right vertex u in id order, every pivot p ∈ N(u) within the degree cap
/// adds one to acc[v] for each v ∈ N(p) with v > u (N(p) is sorted, so the
/// run starts at upper_bound(N(p), u)). Row u is then emitted in ascending
/// v — by a scan of acc[u+1 .. n) when dense, by sorting the touched list
/// when sparse — and its counters zeroed. Counts are exact integers and
/// rows come out in id order, so the edges are (u, v)-sorted with no sort
/// pass. Workers take contiguous row ranges cut at equal pair work, each
/// with its own accumulator, and are concatenated in range order: every
/// thread count gives the same edges.
ProjectedEdges project_exact(const BipartiteGraph& g, const ProjectionOptions& options) {
  const std::size_t side_count = g.right_count();
  const std::size_t pivot_count = g.left_count();

  // Telemetry counts into locals in the one pass over the pivots and is
  // published once: every pivot and its degree, and the pairs of the
  // pivots within the cap.
  static obs::Counter& pivots_counter = obs::metrics().counter("graph.projection.pivots");
  static obs::Counter& pairs_counter = obs::metrics().counter("graph.projection.pairs");
  static obs::Counter& edges_counter = obs::metrics().counter("graph.projection.edges");
  static obs::Histogram& degree_histogram =
      obs::metrics().histogram("graph.projection.pivot_degree", obs::Registry::size_bounds());
  const auto& bounds = degree_histogram.bounds();
  std::vector<std::uint64_t> degree_buckets(bounds.size() + 1, 0);
  std::uint64_t degree_sum = 0;
  std::uint64_t pairs = 0;
  // Adjacency is read once: the graph's accessors check finalize() per call.
  std::vector<std::span<const VertexId>> pivots(pivot_count);
  for (VertexId p = 0; p < pivot_count; ++p) {
    pivots[p] = g.left_neighbors(p);
    const std::size_t d = pivots[p].size();
    std::size_t b = 0;
    while (b < bounds.size() && static_cast<double>(d) > bounds[b]) ++b;
    ++degree_buckets[b];
    degree_sum += d;
    if (options.max_pivot_degree != 0 && d > options.max_pivot_degree) {
      pivots[p] = {};  // a hub over the cap contributes no pair
    } else {
      pairs += d * (d - 1) / 2;
    }
  }
  pivots_counter.add(pivot_count);
  pairs_counter.add(pairs);
  // Degrees are integers, so their micro-unit sum is exact.
  if (obs::metrics_enabled()) {
    degree_histogram.merge_counts(degree_buckets, degree_sum * 1'000'000);
  }
  std::vector<std::span<const VertexId>> rows(side_count);
  for (VertexId u = 0; u < side_count; ++u) {
    rows[u] = g.right_neighbors(u);
  }

  const auto project_rows = [&](std::size_t lo, std::size_t hi, ProjectedEdges& out) {
    OBS_SPAN("graph.projection.count");
    std::vector<std::uint32_t> acc(side_count, 0);
    std::vector<VertexId> touched(side_count);
    for (auto u = static_cast<VertexId>(lo); u < hi; ++u) {
      std::size_t t = 0;
      for (const VertexId p : rows[u]) {
        const auto neighbors = pivots[p];
        for (auto it = std::upper_bound(neighbors.begin(), neighbors.end(), u);
             it != neighbors.end(); ++it) {
          touched[t] = *it;  // kept only on the first touch
          t += acc[*it]++ == 0;
        }
      }
      const auto emit = [&](VertexId v) {
        const double similarity =
            set_similarity(options.measure, acc[v], rows[u].size(), rows[v].size());
        acc[v] = 0;
        if (similarity >= options.min_similarity && similarity > 0.0) {
          out.u.push_back(u);
          out.v.push_back(v);
          out.w.push_back(similarity);
        }
      };
      if (8 * t > side_count - u) {
        for (VertexId v = u + 1; v < side_count; ++v) {
          if (acc[v] != 0) emit(v);
        }
      } else {
        std::sort(touched.begin(), touched.begin() + static_cast<std::ptrdiff_t>(t));
        for (std::size_t i = 0; i < t; ++i) emit(touched[i]);
      }
    }
  };

  std::size_t threads = util::resolve_threads(options.threads);
  threads = std::min(threads, std::max<std::size_t>(1, side_count));
  ProjectedEdges edges;
  if (threads == 1) {
    project_rows(0, side_count, edges);
  } else {
    // Row u's pairs fall as u grows, so the ranges are cut at equal pair
    // work: the i-th of a pivot's d sorted neighbors pairs with the
    // d - 1 - i after it.
    std::vector<std::uint64_t> work(side_count, 1);
    for (const auto& neighbors : pivots) {
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        work[neighbors[i]] += neighbors.size() - 1 - i;
      }
    }
    std::uint64_t total = 0;
    for (const std::uint64_t w : work) total += w;
    std::vector<std::size_t> cut(threads + 1, side_count);
    cut[0] = 0;
    std::uint64_t done = 0;
    for (std::size_t u = 0, k = 1; u < side_count && k < threads; ++u) {
      done += work[u];
      while (k < threads && done * threads >= total * k) cut[k++] = u + 1;
    }
    std::vector<ProjectedEdges> parts(threads);
    util::ThreadPool pool{threads};
    pool.parallel_for(0, threads, [&](std::size_t k, std::size_t, std::size_t) {
      project_rows(cut[k], cut[k + 1], parts[k]);
    });
    for (const auto& part : parts) {
      edges.u.insert(edges.u.end(), part.u.begin(), part.u.end());
      edges.v.insert(edges.v.end(), part.v.begin(), part.v.end());
      edges.w.insert(edges.w.end(), part.w.begin(), part.w.end());
    }
  }
  edges_counter.add(edges.u.size());
  return edges;
}

}  // namespace

util::CsrGraph project_right(const BipartiteGraph& g, const ProjectionOptions& options) {
  const ProjectedEdges edges = project_exact(g, options);
  return util::CsrGraph::build(g.right_count(), edges.u, edges.v, edges.w,
                               g.right_names().names());
}

/// Baseline: one global node-based map, pivots scanned in order.
util::CsrGraph project_right_reference(const BipartiteGraph& g,
                                       const ProjectionOptions& options) {
  std::unordered_map<std::uint64_t, std::uint32_t> intersections;
  for (VertexId pivot = 0; pivot < g.left_count(); ++pivot) {
    const auto neighbors = g.left_neighbors(pivot);
    if (options.max_pivot_degree != 0 && neighbors.size() > options.max_pivot_degree) continue;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const std::uint64_t hi = static_cast<std::uint64_t>(neighbors[i]) << 32;
      for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
        ++intersections[hi | neighbors[j]];
      }
    }
  }

  ProjectedEdges edges;
  for (const auto& [key, inter] : intersections) {
    const auto u = static_cast<VertexId>(key >> 32);
    const auto v = static_cast<VertexId>(key & 0xFFFFFFFFu);
    const double similarity =
        set_similarity(options.measure, inter, g.right_degree(u), g.right_degree(v));
    if (similarity >= options.min_similarity && similarity > 0.0) {
      edges.u.push_back(u);
      edges.v.push_back(v);
      edges.w.push_back(similarity);
    }
  }
  return util::CsrGraph::build(g.right_count(), edges.u, edges.v, edges.w,
                               g.right_names().names());
}

}  // namespace dnsembed::graph
