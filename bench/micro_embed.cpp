// Microbenchmarks: alias-table sampling and LINE training throughput.
#include <benchmark/benchmark.h>

#include "embed/alias.hpp"
#include "embed/line.hpp"
#include "graph/weighted_graph.hpp"
#include "util/rng.hpp"

namespace {

using namespace dnsembed;

void BM_AliasSample(benchmark::State& state) {
  util::Rng rng{1};
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (auto& w : weights) w = rng.uniform() + 0.01;
  const embed::AliasTable table{weights};
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(rng));
  }
}
BENCHMARK(BM_AliasSample)->Arg(1000)->Arg(1000000);

graph::WeightedGraph random_weighted(std::size_t vertices, std::size_t edges,
                                     std::uint64_t seed) {
  util::Rng rng{seed};
  graph::WeightedGraph g;
  for (std::size_t v = 0; v < vertices; ++v) g.add_vertex("v" + std::to_string(v));
  std::size_t added = 0;
  while (added < edges) {
    const auto u = static_cast<graph::VertexId>(rng.uniform_index(vertices));
    const auto v = static_cast<graph::VertexId>(rng.uniform_index(vertices));
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge_unchecked(u, v, rng.uniform() + 0.05);
    ++added;
  }
  return g;
}

void BM_LineSamplesPerSecond(benchmark::State& state) {
  const auto g = random_weighted(2000, 20000, 7);
  embed::LineConfig config;
  config.dimension = 32;
  config.total_samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::train_line(g, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0) * 2);
}
BENCHMARK(BM_LineSamplesPerSecond)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
