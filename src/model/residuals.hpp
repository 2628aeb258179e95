// Residual-time distributions for the abort split (§3.1).
//
// When a local and a central transaction collide on the same entity, who
// aborts depends on timing: if the local transaction is still running when
// the central transaction's authentication arrives, the local transaction
// is preempted (local abort); if the local transaction commits first, its
// asynchronous update invalidates the central transaction (central abort).
//
// The paper approximates the remaining time of the requester as uniform
// (requests spread evenly over the run) and of the holder as triangular
// with density proportional to (T - x) (collision probability proportional
// to locks held, which grow linearly over the run), and adds the
// communication delay to the central side. This module computes
// P(A > B + d) for those distribution shapes.
#pragma once

#include <array>
#include <cstddef>

namespace hls {

/// Shape of a residual-time distribution on [0, length].
enum class ResidualShape {
  Uniform,     ///< density 1/T
  Triangular,  ///< density 2(T-x)/T^2, mass concentrated near 0
};

struct Residual {
  ResidualShape shape = ResidualShape::Uniform;
  double length = 0.0;  ///< support [0, length]; length 0 = the point mass {0}
};

/// P(A > B + offset) for independent residuals A, B and offset >= 0.
/// Evaluated by adaptive Simpson integration over B (exact to ~1e-10 for
/// these piecewise-polynomial shapes; unit tests cross-check closed forms
/// and Monte-Carlo estimates). A B length outside [1e-150, 1e150], where the
/// triangular density's division by its square would overflow or underflow,
/// is first brought into [1, 2) by scaling every length and the offset by
/// one power of two, which leaves the probability unchanged.
[[nodiscard]] double prob_first_exceeds(const Residual& a, const Residual& b,
                                        double offset);

/// P(X > t) for a residual distribution (its survival function).
[[nodiscard]] double residual_survival(const Residual& r, double t);

/// Both outcomes the model takes from one collision between a local run of
/// length `local_len` and a central run of length `central_len`, the
/// central side delayed by `offset`.
struct AbortSplit {
  /// A local request lands on a centrally held entity:
  /// P(LocalUniform > CentralTriangular + offset).
  double local_requester_outlives = 0.0;
  /// A central request lands on a locally held entity:
  /// P(LocalTriangular > CentralUniform + offset).
  double local_holder_outlives = 0.0;
};

/// The two prob_first_exceeds calls of one abort split in one Simpson pass
/// over the central length, so each is a probability at every length.
/// Equal bit for bit to
///   {prob_first_exceeds({Uniform, local_len}, {Triangular, central_len}, offset),
///    prob_first_exceeds({Triangular, local_len}, {Uniform, central_len}, offset)}.
[[nodiscard]] AbortSplit abort_split(double local_len, double central_len,
                                     double offset);

/// The abort splits of N local lengths against one central length and
/// offset, in one Simpson pass that computes the central grid once for all
/// of them. Element k equals abort_split(local_lens[k], central_len, offset)
/// bit for bit. Defined for N = 1 and N = 2 (AnalyticModel::solve's
/// first-run and rerun lengths).
template <std::size_t N>
[[nodiscard]] std::array<AbortSplit, N> abort_splits(
    const std::array<double, N>& local_lens, double central_len, double offset);

}  // namespace hls
