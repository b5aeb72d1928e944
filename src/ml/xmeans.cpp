#include "ml/xmeans.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/span.hpp"
#include "util/simd.hpp"

namespace dnsembed::ml {

double kmeans_bic(const Matrix& x, const Matrix& centroids,
                  const std::vector<std::size_t>& assignment) {
  const auto n = static_cast<double>(x.rows());
  const auto k = static_cast<double>(centroids.rows());
  const auto d = static_cast<double>(x.cols());
  if (x.rows() != assignment.size()) throw std::invalid_argument{"kmeans_bic: size mismatch"};

  double rss = 0.0;
  std::vector<std::size_t> counts(centroids.rows(), 0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    rss += util::simd::squared_l2(x.row(i), centroids.row(assignment[i]));
    ++counts[assignment[i]];
  }
  // MLE of the shared spherical variance; clamp for degenerate fits.
  const double denom = std::max(1.0, n - k);
  const double variance = std::max(rss / (denom * d), 1e-12);

  // Log-likelihood of the spherical-Gaussian mixture (Pelleg & Moore Eq. 2-3).
  double loglik = 0.0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const auto nc = static_cast<double>(counts[c]);
    if (nc == 0.0) continue;
    loglik += nc * std::log(nc / n);
  }
  loglik -= n * d / 2.0 * std::log(2.0 * M_PI * variance);
  loglik -= rss / (2.0 * variance);

  // Free parameters: k-1 mixing weights + k*d means + 1 shared variance.
  const double params = (k - 1.0) + k * d + 1.0;
  return loglik - params / 2.0 * std::log(n);
}

XMeansResult xmeans(const Matrix& x, const XMeansConfig& config) {
  OBS_SPAN("ml.xmeans");
  if (config.k_min < 1 || config.k_min > config.k_max) {
    throw std::invalid_argument{"xmeans: need 1 <= k_min <= k_max"};
  }
  if (x.rows() < config.k_min) throw std::invalid_argument{"xmeans: too few rows"};

  KMeansConfig base;
  base.k = std::min(config.k_min, x.rows());
  base.max_iterations = config.max_iterations;
  base.restarts = config.restarts;
  base.seed = config.seed;
  KMeansResult current = kmeans(x, base);

  // Improve-structure loop: try to split every centroid in two; keep the
  // splits whose local BIC improves; stop when nothing splits or k_max hit.
  bool improved = true;
  std::uint64_t round = 0;
  while (improved && current.centroids.rows() < config.k_max) {
    improved = false;
    ++round;
    std::vector<std::vector<std::size_t>> members(current.centroids.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) members[current.assignment[i]].push_back(i);

    std::vector<Matrix> new_centroid_sets;
    for (std::size_t c = 0; c < members.size(); ++c) {
      const auto& idx = members[c];
      bool split = false;
      // new_centroid_sets holds c sets here, so this tests k + c < k_max: only
      // the first k_max - k clusters of a round may try a split.
      if (idx.size() >= 4 && current.centroids.rows() + new_centroid_sets.size() < config.k_max) {
        Matrix local = x.select_rows(idx);
        // Parent BIC: one cluster.
        Matrix parent_centroid{1, x.cols()};
        std::copy(current.centroids.row(c).begin(), current.centroids.row(c).end(),
                  parent_centroid.row(0).begin());
        const double parent_bic =
            kmeans_bic(local, parent_centroid, std::vector<std::size_t>(idx.size(), 0));
        // Child BIC: two clusters fit locally.
        KMeansConfig child_cfg;
        child_cfg.k = 2;
        child_cfg.max_iterations = config.max_iterations;
        child_cfg.restarts = config.restarts;
        child_cfg.seed = config.seed + 1000 * round + c;
        const KMeansResult child = kmeans(local, child_cfg);
        const double child_bic = kmeans_bic(local, child.centroids, child.assignment);
        if (child_bic > parent_bic) {
          new_centroid_sets.push_back(child.centroids);
          split = true;
          improved = true;
        }
      }
      if (!split) {
        Matrix keep{1, x.cols()};
        std::copy(current.centroids.row(c).begin(), current.centroids.row(c).end(),
                  keep.row(0).begin());
        new_centroid_sets.push_back(std::move(keep));
      }
    }
    if (!improved) break;

    // Re-run global k-means from fresh k-means++ seeds (seed + 7 * round) at
    // the accepted centroid count; only the count of the sets above is used.
    // Seeding from the accepted centroids would change the cluster tables
    // (ROADMAP item 8).
    std::size_t total_k = 0;
    for (const auto& set : new_centroid_sets) total_k += set.rows();
    total_k = std::min(total_k, config.k_max);
    KMeansConfig next_cfg;
    next_cfg.k = total_k;
    next_cfg.max_iterations = config.max_iterations;
    next_cfg.restarts = config.restarts;
    next_cfg.seed = config.seed + 7 * round;
    current = kmeans(x, next_cfg);
  }

  XMeansResult result;
  result.k = current.centroids.rows();
  result.bic = kmeans_bic(x, current.centroids, current.assignment);
  result.centroids = std::move(current.centroids);
  result.assignment = std::move(current.assignment);
  return result;
}

}  // namespace dnsembed::ml
