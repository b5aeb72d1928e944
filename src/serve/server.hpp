// Stream front-end for the serve engine: a newline-delimited request
// protocol over any istream/ostream pair, so the CLI daemon reads stdin
// and tests drive the exact production loop through stringstreams.
//
// Protocol (one request per line):
//   <domain>      score it; reply "<score>\t<verdict>\t<source>\t<domain>"
//                 with verdict in {malicious, benign, unknown} and source
//                 in {index, batched, unknown}
//   !reload       rebuild + swap the artifact snapshot; reply "ok reload
//                 version=<v>" or "error reload <reason>" (old snapshot
//                 stays live on failure)
//   !stats        reply one-line JSON with the engine counters
//   !quit         stop; EOF does the same
//
// Replies keep request order. The output is flushed only before a read
// that could block (no input left in the stream buffer or the pipe), so a
// burst of pipelined requests is answered with one write per output buffer
// instead of one per line. A client must send whole lines: the replies to
// earlier lines wait while a partial line is read.
//
// When a status path is configured the engine counters are also written
// there as a small JSON document (atomically, so a watcher never reads a
// torn file) every status_every requests and on every control command.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/engine.hpp"

namespace dnsembed::serve {

struct ServerOptions {
  /// Atomic JSON status file ("" = disabled).
  std::string status_path;
  /// Rewrite the status file every N scored lines (and on control lines).
  std::uint64_t status_every = 1024;
};

/// One-line JSON view of the engine counters (the status-file body).
std::string status_json(const ServeEngine& engine);

/// Atomically write status_json to `path`.
void write_status_file(const ServeEngine& engine, const std::string& path);

/// Serve until !quit or EOF. Returns the number of scored domains.
std::uint64_t run_line_server(ServeEngine& engine, std::istream& in, std::ostream& out,
                              const ServerOptions& options = {});

}  // namespace dnsembed::serve
