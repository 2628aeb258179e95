#include "model/residuals.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace hls {

namespace {

// Composite Simpson grid over B's support. The integrand is a piecewise
// polynomial of low degree; a fine fixed grid is exact to rounding for our
// purposes.
constexpr int kSteps = 512;  // even, and a power of two (see abort_split)

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

AbortSplit abort_split(double local_len, double central_len, double offset) {
  HLS_ASSERT(offset >= 0.0, "negative offset");
  HLS_ASSERT(local_len >= 0.0 && central_len >= 0.0, "negative residual length");

  // Zero lengths take prob_first_exceeds's special cases. So do central
  // lengths too small for central_len / kSteps to be exact: only an exact
  // step keeps every grid point inside [0, central_len], where the loop
  // below may skip density()'s support test.
  if (local_len <= 0.0 ||
      central_len < kSteps * std::numeric_limits<double>::min()) {
    return {prob_first_exceeds({ResidualShape::Uniform, local_len},
                               {ResidualShape::Triangular, central_len}, offset),
            prob_first_exceeds({ResidualShape::Triangular, local_len},
                               {ResidualShape::Uniform, central_len}, offset)};
  }

  // prob_first_exceeds's loop, once for both pairs: they share the grid over
  // the central length and the division by the local length. Every term and
  // sum repeats that loop's operations in its order, so each result is the
  // separate call's, bit for bit.
  const double h = central_len / kSteps;
  const double uniform_density = 1.0 / central_len;
  double sum_requester = 0.0;
  double sum_holder = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double y = i * h;
    const double w = simpson_weight(i);
    const double triangular_density =
        2.0 * (central_len - y) / (central_len * central_len);
    const Survivals s = survivals(local_len, y + offset);
    sum_requester += w * triangular_density * s.uniform;
    sum_holder += w * uniform_density * s.triangular;
  }
  return {std::clamp(sum_requester * h / 3.0, 0.0, 1.0),
          std::clamp(sum_holder * h / 3.0, 0.0, 1.0)};
}

}  // namespace hls
