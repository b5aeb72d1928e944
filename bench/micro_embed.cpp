// Microbenchmarks: alias-table sampling and LINE training throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "embed/alias.hpp"
#include "embed/line.hpp"
#include "util/csr.hpp"
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

/// `edges` distinct random pairs over `vertices`, weights in [0.05, 1.05).
util::CsrGraph random_weighted(std::size_t vertices, std::size_t edges, std::uint64_t seed) {
  util::Rng rng{seed};
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint32_t> eu;
  std::vector<std::uint32_t> ev;
  std::vector<double> ew;
  while (eu.size() < edges) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_index(vertices));
    const auto v = static_cast<std::uint32_t>(rng.uniform_index(vertices));
    if (u == v || !seen.insert((std::uint64_t{std::min(u, v)} << 32) | std::max(u, v)).second) {
      continue;
    }
    eu.push_back(u);
    ev.push_back(v);
    ew.push_back(rng.uniform() + 0.05);
  }
  return util::CsrGraph::build(vertices, eu, ev, ew);
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
