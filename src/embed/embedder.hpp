// Unified entry point over the three embedding methods, so the pipeline and
// the ablation benches can switch embedders with one config field.
#pragma once

#include "embed/embedding.hpp"
#include "embed/line.hpp"
#include "embed/sgns.hpp"
#include "embed/walks.hpp"
#include "util/csr.hpp"

namespace dnsembed::embed {

enum class EmbedMethod { kLine, kDeepWalk, kNode2Vec };

struct EmbedConfig {
  EmbedMethod method = EmbedMethod::kLine;
  std::size_t dimension = 128;
  std::uint64_t seed = 1;

  /// Method-specific knobs; `dimension` and `seed` above override the
  /// corresponding fields at dispatch.
  LineConfig line;
  WalkConfig walk;
  SgnsConfig sgns;
};

/// Embed a similarity graph with the selected method. LINE samples the
/// CSR's edge list (its upper triangle); the walk methods step along its
/// rows.
inline EmbeddingMatrix embed_graph(const util::CsrGraph& g, const EmbedConfig& config) {
  switch (config.method) {
    case EmbedMethod::kLine: {
      LineConfig line = config.line;
      line.dimension = config.dimension;
      line.seed = config.seed;
      return train_line(g, line);
    }
    case EmbedMethod::kDeepWalk:
    case EmbedMethod::kNode2Vec: {
      WalkConfig walk = config.walk;
      walk.seed = config.seed;
      if (config.method == EmbedMethod::kDeepWalk) {
        walk.p = 1.0;
        walk.q = 1.0;
      }
      SgnsConfig sgns = config.sgns;
      sgns.dimension = config.dimension;
      sgns.seed = config.seed + 1;
      return train_sgns(g, generate_walks(g, walk), sgns);
    }
  }
  throw std::invalid_argument{"embed_graph: unknown method"};
}

}  // namespace dnsembed::embed
