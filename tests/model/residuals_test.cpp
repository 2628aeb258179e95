#include "model/residuals.hpp"

#include <gtest/gtest.h>

#include <cmath>
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
