#include "model/residuals.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <ostream>

#include "util/random.hpp"

namespace hls {
namespace {

// ---- survival functions ----

TEST(ResidualSurvival, UniformClosedForm) {
  const Residual r{ResidualShape::Uniform, 4.0};
  EXPECT_DOUBLE_EQ(residual_survival(r, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(residual_survival(r, 1.0), 0.75);
  EXPECT_DOUBLE_EQ(residual_survival(r, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(residual_survival(r, 9.0), 0.0);
}

TEST(ResidualSurvival, TriangularClosedForm) {
  const Residual r{ResidualShape::Triangular, 2.0};
  EXPECT_DOUBLE_EQ(residual_survival(r, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(residual_survival(r, 1.0), 0.25);  // (1 - 1/2)^2
  EXPECT_DOUBLE_EQ(residual_survival(r, 2.0), 0.0);
}

TEST(ResidualSurvival, NegativeTimeIsCertain) {
  const Residual r{ResidualShape::Uniform, 1.0};
  EXPECT_DOUBLE_EQ(residual_survival(r, -0.5), 1.0);
}

// ---- closed-form cross-checks for prob_first_exceeds ----

TEST(ProbFirstExceeds, UniformVsUniformZeroOffsetSameLength) {
  // A, B ~ U(0, T) independent: P(A > B) = 1/2.
  const Residual a{ResidualShape::Uniform, 3.0};
  EXPECT_NEAR(prob_first_exceeds(a, a, 0.0), 0.5, 1e-9);
}

TEST(ProbFirstExceeds, UniformVsUniformDifferentLengths) {
  // A ~ U(0, 2), B ~ U(0, 1): P(A > B) = 1 - E[B stuff] = 3/4.
  const Residual a{ResidualShape::Uniform, 2.0};
  const Residual b{ResidualShape::Uniform, 1.0};
  EXPECT_NEAR(prob_first_exceeds(a, b, 0.0), 0.75, 1e-9);
}

TEST(ProbFirstExceeds, TriangularVsPointMass) {
  // B degenerate at 0: P(A > offset) = survival of A.
  const Residual a{ResidualShape::Triangular, 2.0};
  const Residual b{ResidualShape::Uniform, 0.0};
  EXPECT_NEAR(prob_first_exceeds(a, b, 1.0), 0.25, 1e-9);
}

TEST(ProbFirstExceeds, ZeroLengthAIsNever) {
  const Residual a{ResidualShape::Uniform, 0.0};
  const Residual b{ResidualShape::Uniform, 5.0};
  EXPECT_DOUBLE_EQ(prob_first_exceeds(a, b, 0.0), 0.0);
}

TEST(ProbFirstExceeds, HugeOffsetIsZero) {
  const Residual a{ResidualShape::Uniform, 1.0};
  const Residual b{ResidualShape::Triangular, 1.0};
  EXPECT_DOUBLE_EQ(prob_first_exceeds(a, b, 10.0), 0.0);
}

TEST(ProbFirstExceeds, MonotoneDecreasingInOffset) {
  const Residual a{ResidualShape::Uniform, 2.0};
  const Residual b{ResidualShape::Triangular, 1.5};
  double prev = 1.1;
  for (double d = 0.0; d <= 3.0; d += 0.25) {
    const double p = prob_first_exceeds(a, b, d);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(ProbFirstExceeds, MonotoneIncreasingInALength) {
  const Residual b{ResidualShape::Uniform, 1.0};
  double prev = -0.1;
  for (double len = 0.5; len <= 5.0; len += 0.5) {
    const Residual a{ResidualShape::Uniform, len};
    const double p = prob_first_exceeds(a, b, 0.2);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

// ---- the one-pass abort split ----

TEST(AbortSplit, EqualsTheTwoProbFirstExceedsCallsExactly) {
  // Zero lengths, a local run shorter than the offset, central runs longer
  // than the local run minus the offset (the local survival hits zero inside
  // the grid), and lengths across ten decades.
  const double lengths[] = {0.0, 1e-6, 3e-5, 1e-3, 0.07, 0.2, 0.45,
                            1.0, 2.5,  13.0, 400.0, 1e4};
  const double offsets[] = {0.0, 1e-6, 0.2, 0.5, 3.0, 1e4};
  for (const double local : lengths) {
    for (const double central : lengths) {
      for (const double offset : offsets) {
        const AbortSplit split = abort_split(local, central, offset);
        EXPECT_EQ(split.local_requester_outlives,
                  prob_first_exceeds({ResidualShape::Uniform, local},
                                     {ResidualShape::Triangular, central}, offset))
            << "local=" << local << " central=" << central << " offset=" << offset;
        EXPECT_EQ(split.local_holder_outlives,
                  prob_first_exceeds({ResidualShape::Triangular, local},
                                     {ResidualShape::Uniform, central}, offset))
            << "local=" << local << " central=" << central << " offset=" << offset;
      }
    }
  }
}

/// A length or offset log-uniform over ten decades, 1e-6 to 1e4: the grid
/// above's range, between its points.
double log_uniform(Rng& rng) { return std::pow(10.0, rng.uniform(-6.0, 4.0)); }

constexpr int kRandomTriples = 20000;

TEST(AbortSplit, RandomSplitsEqualTheTwoProbFirstExceedsCalls) {
  Rng rng(20261017);
  for (int n = 0; n < kRandomTriples; ++n) {
    const double local = log_uniform(rng);
    const double central = log_uniform(rng);
    const double offset = n % 4 == 0 ? 0.0 : log_uniform(rng);
    const AbortSplit split = abort_split(local, central, offset);
    ASSERT_EQ(split.local_requester_outlives,
              prob_first_exceeds({ResidualShape::Uniform, local},
                                 {ResidualShape::Triangular, central}, offset))
        << "local=" << local << " central=" << central << " offset=" << offset;
    ASSERT_EQ(split.local_holder_outlives,
              prob_first_exceeds({ResidualShape::Triangular, local},
                                 {ResidualShape::Uniform, central}, offset))
        << "local=" << local << " central=" << central << " offset=" << offset;
  }
}

TEST(AbortSplits, TwoLocalLengthsEqualTwoSingleSplits) {
  // Every 64th pair has a zero second length, which sends the pair through
  // prob_first_exceeds's special cases.
  Rng rng(20261018);
  for (int n = 0; n < kRandomTriples; ++n) {
    const double first = log_uniform(rng);
    const double second = n % 64 == 0 ? 0.0 : log_uniform(rng);
    const double central = log_uniform(rng);
    const double offset = n % 4 == 0 ? 0.0 : log_uniform(rng);
    const std::array<AbortSplit, 2> pair =
        abort_splits<2>({first, second}, central, offset);
    const AbortSplit singles[] = {abort_split(first, central, offset),
                                  abort_split(second, central, offset)};
    for (int k = 0; k < 2; ++k) {
      ASSERT_EQ(pair[k].local_requester_outlives,
                singles[k].local_requester_outlives)
          << "k=" << k << " first=" << first << " second=" << second
          << " central=" << central << " offset=" << offset;
      ASSERT_EQ(pair[k].local_holder_outlives, singles[k].local_holder_outlives)
          << "k=" << k << " first=" << first << " second=" << second
          << " central=" << central << " offset=" << offset;
    }
  }
}

TEST(AbortSplit, IsAProbabilityAtEveryLength) {
  // Outside [1e-150, 1e150] the Simpson weights' division by the central
  // length squared would overflow or underflow (the split at a central
  // length of 1e-200 was NaN). The split scales every length and the offset
  // by one power of two first, which changes no probability: where every
  // length stays normal, the scaled split is the unscaled one bit for bit.
  const AbortSplit unit = abort_split(0.75, 0.5, 0.125);
  for (const int e : {-700, 600}) {
    const AbortSplit scaled = abort_split(
        std::ldexp(0.75, e), std::ldexp(0.5, e), std::ldexp(0.125, e));
    EXPECT_EQ(scaled.local_requester_outlives, unit.local_requester_outlives)
        << "2^" << e;
    EXPECT_EQ(scaled.local_holder_outlives, unit.local_holder_outlives)
        << "2^" << e;
  }

  const double inf = std::numeric_limits<double>::infinity();
  int points = 0;
  for (double central = 1e-320; central < 1e308; central *= 7.3) {
    for (double offset : {0.0, 0.2, 1e9, inf}) {
      for (double local : {0.0, 1e-300, 1e-9, 0.5, 3.0, 1e200, inf}) {
        ++points;
        const AbortSplit s = abort_split(local, central, offset);
        for (double p : {s.local_requester_outlives, s.local_holder_outlives}) {
          ASSERT_TRUE(p >= 0.0 && p <= 1.0)
              << "local=" << local << " central=" << central
              << " offset=" << offset << " p=" << p;
        }
        ASSERT_EQ(s.local_requester_outlives,
                  prob_first_exceeds({ResidualShape::Uniform, local},
                                     {ResidualShape::Triangular, central}, offset))
            << "local=" << local << " central=" << central << " offset=" << offset;
        ASSERT_EQ(s.local_holder_outlives,
                  prob_first_exceeds({ResidualShape::Triangular, local},
                                     {ResidualShape::Uniform, central}, offset))
            << "local=" << local << " central=" << central << " offset=" << offset;
      }
    }
  }
  EXPECT_EQ(points, 20384);
}

// ---- Monte-Carlo cross-validation ----

double sample(const Residual& r, Rng& rng) {
  const double u = rng.next_double();
  switch (r.shape) {
    case ResidualShape::Uniform:
      return u * r.length;
    case ResidualShape::Triangular:
      // Inverse CDF of density 2(T-x)/T^2: x = T(1 - sqrt(1-u)).
      return r.length * (1.0 - std::sqrt(1.0 - u));
  }
  return 0.0;
}

struct McCase {
  Residual a;
  Residual b;
  double offset;
};

const char* shape_name(ResidualShape s) {
  return s == ResidualShape::Uniform ? "uniform" : "triangular";
}

// Names each case by its fields in test listings and failure messages. The
// default byte dump would include the uninitialised padding after `shape`.
void PrintTo(const McCase& c, std::ostream* os) {
  *os << "a=" << shape_name(c.a.shape) << ":" << c.a.length
      << ",b=" << shape_name(c.b.shape) << ":" << c.b.length
      << ",offset=" << c.offset;
}

class ProbFirstExceedsMc : public ::testing::TestWithParam<McCase> {};

TEST_P(ProbFirstExceedsMc, MatchesMonteCarlo) {
  const McCase& c = GetParam();
  Rng rng(12345);
  const int n = 400000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    Rng* r = &rng;
    if (sample(c.a, *r) > sample(c.b, *r) + c.offset) {
      ++hits;
    }
  }
  const double mc = static_cast<double>(hits) / n;
  EXPECT_NEAR(prob_first_exceeds(c.a, c.b, c.offset), mc, 0.004);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ProbFirstExceedsMc,
    ::testing::Values(
        McCase{{ResidualShape::Uniform, 1.0}, {ResidualShape::Uniform, 1.0}, 0.0},
        McCase{{ResidualShape::Uniform, 2.0}, {ResidualShape::Triangular, 1.0}, 0.2},
        McCase{{ResidualShape::Triangular, 1.5}, {ResidualShape::Uniform, 0.7}, 0.1},
        McCase{{ResidualShape::Triangular, 3.0}, {ResidualShape::Triangular, 2.0}, 0.5},
        McCase{{ResidualShape::Uniform, 0.8}, {ResidualShape::Triangular, 2.5}, 0.0},
        McCase{{ResidualShape::Triangular, 1.0}, {ResidualShape::Uniform, 1.0}, 1.5}));

}  // namespace
}  // namespace hls
