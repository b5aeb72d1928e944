#include "serve/server.hpp"

#include <exception>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/fsio.hpp"

namespace dnsembed::serve {

namespace {

const char* source_name(ScoreSource source) noexcept {
  switch (source) {
    case ScoreSource::kIndex:
      return "index";
    case ScoreSource::kBatched:
      return "batched";
    case ScoreSource::kUnknown:
      return "unknown";
  }
  return "unknown";
}

}  // namespace

std::string status_json(const ServeEngine& engine) {
  const ServeEngine::Stats s = engine.stats();
  std::ostringstream out;
  out << "{\"snapshot_version\": " << s.snapshot_version
      << ", \"index_entries\": " << s.index_entries << ", \"index_bytes\": " << s.index_bytes
      << ", \"embedding_rows\": " << s.embedding_rows << ", \"lookups\": " << s.lookups
      << ", \"index_hits\": " << s.index_hits << ", \"batch_scored\": " << s.batch_scored
      << ", \"unknown\": " << s.unknown << ", \"reloads\": " << s.reloads << "}\n";
  return out.str();
}

void write_status_file(const ServeEngine& engine, const std::string& path) {
  util::fsio::atomic_write_file(path, status_json(engine));
}

std::uint64_t run_line_server(ServeEngine& engine, std::istream& in, std::ostream& out,
                              const ServerOptions& options) {
  const bool status = !options.status_path.empty();
  if (status) write_status_file(engine, options.status_path);

  std::uint64_t scored = 0;
  std::string line;
  for (;;) {
    // Flush only before a read that could block: while more input is
    // buffered or waiting in the pipe, replies accumulate and a burst's
    // replies leave together once its lines are consumed.
    if (in.rdbuf()->in_avail() <= 0) out.flush();
    if (!std::getline(in, line)) break;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '!') {
      if (line == "!quit") break;
      if (line == "!reload") {
        try {
          engine.reload();
          out << "ok reload version=" << engine.stats().snapshot_version << '\n';
        } catch (const std::exception& e) {
          out << "error reload " << e.what() << '\n';
        }
      } else if (line == "!stats") {
        out << status_json(engine);
      } else {
        out << "error unknown command " << line << '\n';
      }
      if (status) write_status_file(engine, options.status_path);
      continue;
    }
    const LookupResult result = engine.lookup(line);
    const char* verdict = result.source == ScoreSource::kUnknown
                              ? "unknown"
                              : (result.malicious ? "malicious" : "benign");
    const auto flags = out.flags();
    out.precision(17);
    out << result.score << '\t' << verdict << '\t' << source_name(result.source) << '\t' << line
        << '\n';
    out.flags(flags);
    ++scored;
    if (status && options.status_every != 0 && scored % options.status_every == 0) {
      write_status_file(engine, options.status_path);
    }
  }
  out.flush();
  if (status) write_status_file(engine, options.status_path);
  return scored;
}

}  // namespace dnsembed::serve
