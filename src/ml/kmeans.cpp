#include "ml/kmeans.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dnsembed::ml {

double squared_l2(std::span<const double> a, std::span<const double> b) noexcept {
  return util::simd::squared_l2(a, b);
}

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Relative margin of the Elkan bounds (DESIGN §11). A computed squared
// distance of d-dimensional rows is within about (d + 2) * 2^-53 of the
// exact one, far inside this margin.
constexpr double kMargin = 1e-9;

// Stored bounds carry the margin: an upper bound holds (1 + kMargin) times
// the true distance, a lower bound (1 - kMargin) times, so a bare `upper <
// lower` proves u * (1 + kMargin) < l * (1 - kMargin). Each is set from a
// computed distance widened by twice the margin, and updates round outward.
double upper_of(double squared) noexcept { return std::sqrt(squared) * (1.0 + 2.0 * kMargin); }
double lower_of(double squared) noexcept { return std::sqrt(squared) * (1.0 - 2.0 * kMargin); }

/// k-means++ seeding. Row c of `seed_distances` (k x n) receives centroid
/// c's squared distances to every point for c < k - 1: the rows the seeding
/// computes anyway, which Lloyd's first pass reads back.
Matrix kmeanspp_init(const Matrix& x, std::size_t k, util::Rng& rng,
                     std::vector<double>& seed_distances, std::uint64_t& distances) {
  const std::size_t n = x.rows();
  Matrix centroids{k, x.cols()};
  std::vector<double> min_dist(n, kInfinity);
  seed_distances.resize(k * n);

  std::size_t first = rng.uniform_index(n);
  std::copy(x.row(first).begin(), x.row(first).end(), centroids.row(0).begin());
  for (std::size_t c = 1; c < k; ++c) {
    double* const dist = seed_distances.data() + (c - 1) * n;
    util::simd::squared_l2_rows(centroids.row(c - 1).data(), x.data(), n, x.cols(), dist);
    distances += n;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i], dist[i]);
      total += min_dist[i];
    }
    std::size_t chosen = 0;
    if (total > 0.0) {
      double u = rng.uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        u -= min_dist[i];
        if (u <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.uniform_index(n);  // all points identical
    }
    std::copy(x.row(chosen).begin(), x.row(chosen).end(), centroids.row(c).begin());
  }
  return centroids;
}

/// half[a * k + c] <= (1 - kMargin) |c_a - c_c| / 2, with an infinite
/// diagonal so a point never tests its own centroid; reach[a] is the
/// smallest of half[a * k + c] over c != a (infinite when k = 1). Only the
/// pairs with a centroid that `moved` (was rewritten) since the last call
/// are recomputed: a pair of kept centroids keeps its half, bit for bit.
void centroid_halves(const Matrix& centroids, const std::vector<char>& moved,
                     std::vector<double>& half, std::vector<double>& reach,
                     std::uint64_t& distances) {
  const std::size_t k = centroids.rows();
  const std::size_t d = centroids.cols();
  const double* const cs = centroids.data();
  std::vector<double> dist(k);
  const auto set_pair = [&](std::size_t a, std::size_t c, double squared) {
    const double h = 0.5 * lower_of(squared);
    half[a * k + c] = h;
    half[c * k + a] = h;
  };
  for (std::size_t a = 0; a < k; ++a) half[a * k + a] = kInfinity;
  for (std::size_t a = 0; a + 1 < k; ++a) {
    if (moved[a] != 0) {
      util::simd::squared_l2_rows(cs + a * d, cs + (a + 1) * d, k - a - 1, d, dist.data());
      for (std::size_t c = a + 1; c < k; ++c) set_pair(a, c, dist[c - a - 1]);
      distances += k - a - 1;
      continue;
    }
    for (std::size_t c = a + 1; c < k; ++c) {
      if (moved[c] == 0) continue;
      set_pair(a, c, util::simd::squared_l2(cs + a * d, cs + c * d, d));
      ++distances;
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    reach[a] = *std::min_element(half.begin() + static_cast<std::ptrdiff_t>(a * k),
                                 half.begin() + static_cast<std::ptrdiff_t>((a + 1) * k));
  }
}

/// Lloyd's iterations. The first pass takes every point-centroid distance
/// from k-means++'s rows (`seed_distances`, k x n, all but the last row
/// filled); later passes skip the candidates that Elkan's triangle-
/// inequality bounds (ICML 2003) rule out, with a margin wide enough that
/// each assignment is the plain scan's lowest-index argmin, bit for bit, and
/// re-sum only the clusters whose membership changed.
KMeansResult lloyd(const Matrix& x, Matrix centroids, std::vector<double>& seed_distances,
                   std::size_t max_iterations, util::Rng& rng, std::uint64_t& distances) {
  const std::size_t n = x.rows();
  const std::size_t k = centroids.rows();
  const std::size_t d = x.cols();
  KMeansResult result;
  result.assignment.assign(n, 0);

  // upper[i] >= (1 + kMargin) |x_i - c_assignment[i]| and
  // lower[i * k + c] <= (1 - kMargin) |x_i - c|.
  std::vector<double> upper(n);
  std::vector<double> lower(n * k);
  std::vector<double> half(k * k);
  std::vector<double> reach(k);
  std::vector<double> drift(k);
  // A cluster is dirty when a point joined or left it in the last pass;
  // every cluster is after the first. A clean, non-empty cluster keeps its
  // members in point order, so its sum and centroid keep their bits.
  std::vector<char> dirty(k, 1);
  // A centroid moved when the last update rewrote it (every one after the
  // first pass); centroid_halves keeps the pairs of the others.
  std::vector<char> moved(k, 1);
  std::vector<std::size_t> counts(k, 0);
  Matrix sums{k, d};
  std::vector<double> previous(d);

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = iter == 0;
    const double* const cs = centroids.data();
    if (iter == 0) {
      // k-means++ left every centroid's distances but the last one's; by
      // the rows kernel's contract each is the pairwise call's bits.
      double* const dist = seed_distances.data();
      util::simd::squared_l2_rows(cs + (k - 1) * d, x.data(), n, d, dist + (k - 1) * n);
      distances += n;
      for (std::size_t i = 0; i < n; ++i) {
        double* const li = lower.data() + i * k;
        double best = kInfinity;
        std::size_t best_c = 0;
        for (std::size_t c = 0; c < k; ++c) {
          const double dc = dist[c * n + i];
          if (dc < best) {
            best = dc;
            best_c = c;
          }
          li[c] = lower_of(dc);
        }
        upper[i] = upper_of(best);
        result.assignment[i] = best_c;
        ++counts[best_c];
      }
    } else {
      centroid_halves(centroids, moved, half, reach, distances);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t from = result.assignment[i];
        std::size_t a = from;
        double u = upper[i];
        if (u < reach[a]) continue;
        const double* const xi = x.data() + i * d;
        double* const li = lower.data() + i * k;
        const double* half_a = half.data() + a * k;
        bool tight = false;
        double da = 0.0;
        for (std::size_t block = 0; block < k; block += 64) {
          // The mask drops the candidates the test below rejects at the
          // bound and centroid the block starts with; a dropped one is
          // strictly farther than that centroid, so than any a it switches
          // to. The mask is not rebuilt after a switch, so it may skip a
          // few distances the plain loop would compute (DESIGN §11).
          std::uint64_t mask = util::simd::candidate_mask(u, li + block, half_a + block,
                                                          std::min<std::size_t>(64, k - block));
          for (; mask != 0; mask &= mask - 1) {
            const std::size_t c = block + static_cast<std::size_t>(std::countr_zero(mask));
            // c is strictly farther than a by its own bound or, by the
            // triangle inequality, by half its distance to a.
            if (u < li[c] || u < half_a[c]) continue;
            if (!tight) {
              da = util::simd::squared_l2(xi, cs + a * d, d);
              ++distances;
              u = upper_of(da);
              li[a] = lower_of(da);
              tight = true;
              if (u < li[c] || u < half_a[c]) continue;
            }
            const double dc = util::simd::squared_l2(xi, cs + c * d, d);
            ++distances;
            li[c] = lower_of(dc);
            if (dc < da || (dc == da && c < a)) {
              a = c;
              da = dc;
              u = upper_of(dc);
              half_a = half.data() + a * k;
            }
          }
        }
        upper[i] = u;
        if (a != from) {
          changed = true;
          dirty[from] = 1;
          dirty[a] = 1;
          --counts[from];
          ++counts[a];
          result.assignment[i] = a;
        }
      }
    }
    result.iterations = iter + 1;
    if (!changed && iter > 0) break;

    for (std::size_t c = 0; c < k; ++c) {
      if (dirty[c] != 0) std::fill(sums.row(c).begin(), sums.row(c).end(), 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = result.assignment[i];
      if (dirty[c] != 0) util::simd::add(x.data() + i * d, sums.row(c).data(), d);
    }
    for (std::size_t c = 0; c < k; ++c) {
      moved[c] = dirty[c] != 0 || counts[c] == 0;
      if (moved[c] == 0) {
        drift[c] = 0.0;
        continue;
      }
      auto row = centroids.row(c);
      std::copy(row.begin(), row.end(), previous.begin());
      if (counts[c] == 0) {
        // Empty cluster: re-seed on a random point to keep k clusters.
        const auto src = x.row(rng.uniform_index(n));
        std::copy(src.begin(), src.end(), row.begin());
      } else {
        const auto sum = sums.row(c);
        for (std::size_t j = 0; j < d; ++j) row[j] = sum[j] / static_cast<double>(counts[c]);
      }
      // Each centroid's move loosens the bounds that name it; rounding the
      // updates outward keeps them bounds.
      drift[c] = upper_of(squared_l2(previous, row));
      ++distances;
      dirty[c] = 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      upper[i] = (upper[i] + drift[result.assignment[i]]) * (1.0 + kMargin);
      util::simd::loosen_bounds(lower.data() + i * k, drift.data(), 1.0 - kMargin, k);
    }
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    result.inertia += squared_l2(x.row(i), centroids.row(result.assignment[i]));
  }
  distances += n;
  result.centroids = std::move(centroids);
  return result;
}

}  // namespace

KMeansResult kmeans(const Matrix& x, const KMeansConfig& config) {
  if (config.k == 0) throw std::invalid_argument{"kmeans: k must be >= 1"};
  if (x.rows() < config.k) throw std::invalid_argument{"kmeans: fewer rows than clusters"};
  if (config.restarts == 0) throw std::invalid_argument{"kmeans: restarts must be >= 1"};

  static obs::Counter& distance_counter = obs::metrics().counter("ml.kmeans.distances");
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  std::vector<double> seed_distances;
  for (std::size_t r = 0; r < config.restarts; ++r) {
    util::Rng rng{config.seed + r * 0x9e3779b97f4a7c15ULL};
    std::uint64_t distances = 0;
    auto centroids = kmeanspp_init(x, config.k, rng, seed_distances, distances);
    auto result = lloyd(x, std::move(centroids), seed_distances, config.max_iterations, rng,
                        distances);
    distance_counter.add(distances);
    if (result.inertia < best.inertia) best = std::move(result);
  }
  return best;
}

}  // namespace dnsembed::ml
