// Microbenchmarks: trace generation, the trace stage's graph build and
// capture throughput.
#include <benchmark/benchmark.h>

#include <sstream>

#include "core/behavior.hpp"
#include "dns/capture_io.hpp"
#include "trace/generator.hpp"
#include "trace/pcap_sink.hpp"

namespace {

using namespace dnsembed;

trace::TraceConfig micro_config(std::size_t hosts) {
  trace::TraceConfig config;
  config.seed = 5;
  config.hosts = hosts;
  config.days = 1;
  config.benign_sites = 300;
  config.third_party_pool = 60;
  config.interests_per_host = 40;
  config.polling_apps = 6;
  config.malware_families = 6;
  config.min_victims = 3;
  config.max_victims = 10;
  return config;
}

class CountSink final : public trace::TraceSink {
 public:
  void on_dns(const dns::LogEntry&) override { ++events; }
  std::size_t events = 0;
};

void BM_TraceGeneration(benchmark::State& state) {
  const auto config = micro_config(static_cast<std::size_t>(state.range(0)));
  std::size_t events = 0;
  for (auto _ : state) {
    CountSink sink;
    benchmark::DoNotOptimize(trace::generate_trace(config, sink));
    events = sink.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_TraceGeneration)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

/// `dnsembed run --seed 11`'s trace at the CLI defaults.
trace::TraceConfig run_config() {
  trace::TraceConfig config;
  config.seed = 11;
  config.hosts = 200;
  config.days = 4;
  config.benign_sites = 1000;
  config.malware_families = 8;
  return config;
}

/// `run`'s trace stage without its saves: the generator into the graph
/// sink, then the three finalized graphs (span "trace.graph_build").
/// BM_TraceGeneration times the generator alone, with a CountSink.
void BM_TraceGraphBuild(benchmark::State& state) {
  const auto config = run_config();
  std::size_t edges = 0;
  for (auto _ : state) {
    core::GraphBuilderSink sink;
    benchmark::DoNotOptimize(trace::generate_trace(config, sink));
    edges = sink.take_hdbg().edge_count() + sink.take_dibg().edge_count() +
            sink.take_dtbg().edge_count();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_TraceGraphBuild)->Unit(benchmark::kMillisecond);

void BM_PcapStreaming(benchmark::State& state) {
  const auto config = micro_config(50);
  for (auto _ : state) {
    std::ostringstream capture;
    trace::PcapStreamSink sink{capture};
    benchmark::DoNotOptimize(trace::generate_trace(config, sink));
  }
}
BENCHMARK(BM_PcapStreaming)->Unit(benchmark::kMillisecond);

void BM_PcapImport(benchmark::State& state) {
  const auto config = micro_config(50);
  std::ostringstream capture;
  trace::PcapStreamSink sink{capture};
  trace::generate_trace(config, sink);
  const std::string bytes = capture.str();
  for (auto _ : state) {
    std::istringstream in{bytes};
    benchmark::DoNotOptimize(dns::import_pcap(in));
  }
  state.counters["MB"] = static_cast<double>(bytes.size()) / 1e6;
}
BENCHMARK(BM_PcapImport)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
