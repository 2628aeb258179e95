#include "model/residuals.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/assert.hpp"

namespace hls {

namespace {

// Composite Simpson grid over B's support. The integrand is a piecewise
// polynomial of low degree; a fine fixed grid is exact to rounding for our
// purposes.
constexpr int kSteps = 512;  // even, and a power of two (see abort_splits)

double simpson_weight(int i) {
  return (i == 0 || i == kSteps) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
}

/// Survival at t of the uniform and of the triangular residual of one
/// length; both use the one division.
struct Survivals {
  double uniform;
  double triangular;
};

Survivals survivals(double length, double t) {
  if (t <= 0.0) {
    return {1.0, 1.0};
  }
  if (t >= length) {
    return {0.0, 0.0};
  }
  const double u = t / length;
  // density 2(T-x)/T^2 -> survival (1-u)^2
  return {1.0 - u, (1.0 - u) * (1.0 - u)};
}

// Two doubles in one 16-byte register. GCC and Clang apply each operator
// to both lanes, rounding each as the scalar operation would; on x86-64
// that is baseline SSE2.
using Lanes = double __attribute__((vector_size(16)));

struct LaneSurvivals {
  Lanes uniform;
  Lanes triangular;
};

/// survivals() at both lanes of `t`: its division and its three outcomes,
/// picked by lane masks where survivals() branches. Squaring the uniform
/// survival gives the triangular one in every outcome (1, 0 or (1-u)^2).
LaneSurvivals lane_survivals(double length, Lanes t) {
  const Lanes u = t / length;
  const Lanes certain = {1.0, 1.0};
  const Lanes over = {0.0, 0.0};
  const Lanes uniform = t <= 0.0 ? certain : (t >= length ? over : 1.0 - u);
  return {uniform, uniform * uniform};
}

/// The exponent e for which 2^e · `central_len` lies in [1, 2), when the
/// Simpson weights' division by central_len² would overflow or underflow at
/// central_len itself (outside [1e-150, 1e150]); 0 otherwise, and for zero
/// or an infinite length.
int rescale_exponent(double central_len) {
  const bool extreme = central_len < 1e-150 || central_len > 1e150;
  return central_len > 0.0 && extreme && std::isfinite(central_len)
             ? -std::ilogb(central_len)
             : 0;
}

double density(const Residual& r, double x) {
  if (x < 0.0 || x > r.length || r.length <= 0.0) {
    return 0.0;
  }
  switch (r.shape) {
    case ResidualShape::Uniform:
      return 1.0 / r.length;
    case ResidualShape::Triangular:
      return 2.0 * (r.length - x) / (r.length * r.length);
  }
  return 0.0;
}

}  // namespace

double residual_survival(const Residual& r, double t) {
  const Survivals s = survivals(r.length, t);
  switch (r.shape) {
    case ResidualShape::Uniform:
      return s.uniform;
    case ResidualShape::Triangular:
      return s.triangular;
  }
  return 0.0;
}

double prob_first_exceeds(const Residual& a, const Residual& b, double offset) {
  HLS_ASSERT(offset >= 0.0, "negative offset");
  HLS_ASSERT(a.length >= 0.0 && b.length >= 0.0, "negative residual length");
  // The probability does not change with scale, and scaling by a power of
  // two is exact: an extreme length of B is computed at [1, 2) instead.
  if (const int e = rescale_exponent(b.length); e != 0) {
    return prob_first_exceeds({a.shape, std::ldexp(a.length, e)},
                              {b.shape, std::ldexp(b.length, e)},
                              std::ldexp(offset, e));
  }

  if (a.length <= 0.0) {
    return 0.0;  // A == 0 can never exceed B + offset >= 0
  }
  if (b.length <= 0.0) {
    // A > offset with B degenerate at 0.
    return residual_survival(a, offset);
  }

  // P(A > B + offset) = integral over y of f_B(y) * S_A(y + offset) dy.
  const double h = b.length / kSteps;
  double sum = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double y = i * h;
    sum += simpson_weight(i) * density(b, y) * residual_survival(a, y + offset);
  }
  const double p = sum * h / 3.0;
  return std::clamp(p, 0.0, 1.0);
}

template <std::size_t N>
std::array<AbortSplit, N> abort_splits(const std::array<double, N>& local_lens,
                                       double central_len, double offset) {
  HLS_ASSERT(offset >= 0.0, "negative offset");
  HLS_ASSERT(central_len >= 0.0, "negative residual length");
  // As in prob_first_exceeds: an extreme central length is computed at
  // [1, 2), every length and the offset scaled by the same power of two.
  if (const int e = rescale_exponent(central_len); e != 0) {
    std::array<double, N> scaled;
    for (std::size_t k = 0; k < N; ++k) {
      scaled[k] = std::ldexp(local_lens[k], e);
    }
    return abort_splits<N>(scaled, std::ldexp(central_len, e),
                           std::ldexp(offset, e));
  }
  // Zero lengths take prob_first_exceeds's special cases; one sends every
  // split of the call there, and the others come out the same. A positive
  // central length is at least 1e-150 here, so the step central_len / kSteps
  // is exact and keeps every grid point inside [0, central_len], where the
  // pass below may skip density()'s support test.
  bool degenerate = central_len <= 0.0;
  for (const double local_len : local_lens) {
    HLS_ASSERT(local_len >= 0.0, "negative residual length");
    degenerate = degenerate || local_len <= 0.0;
  }
  std::array<AbortSplit, N> out;
  if (degenerate) {
    for (std::size_t k = 0; k < N; ++k) {
      out[k] = {prob_first_exceeds({ResidualShape::Uniform, local_lens[k]},
                                   {ResidualShape::Triangular, central_len},
                                   offset),
                prob_first_exceeds({ResidualShape::Triangular, local_lens[k]},
                                   {ResidualShape::Uniform, central_len},
                                   offset)};
    }
    return out;
  }

  // prob_first_exceeds's loop, once for both pairs of every local length.
  // All of them share the grid over the central length, its triangular
  // density and t = y + offset; each local length's two pairs share the
  // division by it. Grid points 2j and 2j + 1 go through every operation
  // together in two lanes, each lane repeating the loop's operations on its
  // point in the loop's order, and the lanes' terms join each running sum
  // one point at a time, in index order. So each result is the separate
  // call's, bit for bit.
  const double h = central_len / kSteps;
  const double uniform_density = 1.0 / central_len;
  const double central_sq = central_len * central_len;
  std::array<double, N> sum_requester{};
  std::array<double, N> sum_holder{};
  Lanes index = {0.0, 1.0};
  Lanes weight = {simpson_weight(0), simpson_weight(1)};
  for (int i = 0; i < kSteps; i += 2) {
    const Lanes y = index * h;
    const Lanes triangular_density = 2.0 * (central_len - y) / central_sq;
    const Lanes t = y + offset;
    // Unrolled, so that the sums stay in registers: at -O2, GCC 12 leaves
    // this loop rolled and keeps them in memory.
#pragma GCC unroll 2
    for (std::size_t k = 0; k < N; ++k) {
      const LaneSurvivals s = lane_survivals(local_lens[k], t);
      const Lanes requester = weight * triangular_density * s.uniform;
      const Lanes holder = weight * uniform_density * s.triangular;
      sum_requester[k] += requester[0];
      sum_requester[k] += requester[1];
      sum_holder[k] += holder[0];
      sum_holder[k] += holder[1];
    }
    index += 2.0;
    weight = Lanes{simpson_weight(2), simpson_weight(3)};
  }
  // The last grid point, y = central_len, has no partner.
  const double y = kSteps * h;
  const double w = simpson_weight(kSteps);
  const double triangular_density = 2.0 * (central_len - y) / central_sq;
  for (std::size_t k = 0; k < N; ++k) {
    const Survivals s = survivals(local_lens[k], y + offset);
    sum_requester[k] += w * triangular_density * s.uniform;
    sum_holder[k] += w * uniform_density * s.triangular;
    out[k] = {std::clamp(sum_requester[k] * h / 3.0, 0.0, 1.0),
              std::clamp(sum_holder[k] * h / 3.0, 0.0, 1.0)};
  }
  return out;
}

template std::array<AbortSplit, 1> abort_splits(const std::array<double, 1>&,
                                                double, double);
template std::array<AbortSplit, 2> abort_splits(const std::array<double, 2>&,
                                                double, double);

AbortSplit abort_split(double local_len, double central_len, double offset) {
  return abort_splits<1>({local_len}, central_len, offset)[0];
}

}  // namespace hls
