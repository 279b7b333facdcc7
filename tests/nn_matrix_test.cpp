#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace pfdrl::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (double& x : m.data()) x = rng.normal();
  return m;
}

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      out(i, j) = s;
    }
  }
  return out;
}

TEST(Matrix, ConstructZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (double x : m.data()) EXPECT_EQ(x, 0.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 2);
  m.fill(7.0);
  EXPECT_EQ(m(1, 1), 7.0);
  m.zero();
  EXPECT_EQ(m(0, 0), 0.0);
}

TEST(Matrix, AddSubScale) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{10.0, 20.0}};
  a += b;
  EXPECT_EQ(a(0, 1), 22.0);
  a -= b;
  EXPECT_EQ(a(0, 1), 2.0);
  a *= 3.0;
  EXPECT_EQ(a(0, 0), 3.0);
}

TEST(Matrix, Axpy) {
  Matrix a{{1.0, 1.0}};
  const Matrix b{{2.0, 4.0}};
  a.axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
}

TEST(Matrix, Apply) {
  Matrix m{{-1.0, 2.0}};
  m.apply([](double x) { return x * x; });
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 4.0);
}

TEST(Matrix, Transposed) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
}

TEST(Matrix, SquaredNorm) {
  Matrix m{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.squared_norm(), 25.0);
}

TEST(Matrix, Equality) {
  Matrix a{{1.0}};
  Matrix b{{1.0}};
  Matrix c{{2.0}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Matmul, KnownValues) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  const Matrix a = random_matrix(static_cast<std::size_t>(m),
                                 static_cast<std::size_t>(k), rng);
  const Matrix b = random_matrix(static_cast<std::size_t>(k),
                                 static_cast<std::size_t>(n), rng);
  const Matrix expected = naive_matmul(a, b);
  const Matrix got = matmul(a, b);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got.data()[i], expected.data()[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{5, 1, 5}, std::tuple{16, 16, 16},
                      std::tuple{33, 17, 9}, std::tuple{64, 64, 64}));

TEST(Matmul, AtB) {
  util::Rng rng(5);
  const Matrix a = random_matrix(7, 4, rng);
  const Matrix b = random_matrix(7, 3, rng);
  Matrix got;
  matmul_at_b(a, b, got);
  const Matrix expected = naive_matmul(a.transposed(), b);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got.data()[i], expected.data()[i], 1e-10);
  }
}

TEST(Matmul, ABt) {
  util::Rng rng(6);
  const Matrix a = random_matrix(5, 6, rng);
  const Matrix b = random_matrix(4, 6, rng);
  Matrix got;
  matmul_a_bt(a, b, got);
  const Matrix expected = naive_matmul(a, b.transposed());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got.data()[i], expected.data()[i], 1e-10);
  }
}

TEST(Matmul, AddRowVector) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix bias{{10.0, 20.0}};
  add_row_vector(m, bias);
  EXPECT_EQ(m(0, 0), 11.0);
  EXPECT_EQ(m(1, 1), 24.0);
}

TEST(Matmul, SumRows) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Matrix out;
  sum_rows(m, out);
  ASSERT_EQ(out.rows(), 1u);
  EXPECT_DOUBLE_EQ(out(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 12.0);
}

TEST(Matmul, OutputResizedWhenNeeded) {
  const Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  const Matrix b{{2.0}, {3.0}};
  Matrix out(7, 9);  // wrong shape on purpose
  matmul(a, b, out);
  ASSERT_EQ(out.rows(), 2u);
  ASSERT_EQ(out.cols(), 1u);
  EXPECT_DOUBLE_EQ(out(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 3.0);
}

TEST(Matmul, OutAliasingAIsGuarded) {
  util::Rng rng(7);
  Matrix a = random_matrix(4, 4, rng);
  const Matrix b = random_matrix(4, 4, rng);
  const Matrix expected = matmul(a, b);
  matmul(a, b, a);  // out aliases a: must detour through a temporary
  EXPECT_EQ(a, expected);
}

TEST(Matmul, OutAliasingBIsGuarded) {
  util::Rng rng(8);
  const Matrix a = random_matrix(3, 3, rng);
  Matrix b = random_matrix(3, 3, rng);
  const Matrix expected = matmul(a, b);
  matmul(a, b, b);  // out aliases b
  EXPECT_EQ(b, expected);
}

// Blocked a*b^T kernel vs the naive reference on shapes that exercise
// the 4-wide register block and its remainder (rows % 4 in {0,1,2,3}).
TEST(Matmul, ABtShapesMatchNaive) {
  util::Rng rng(9);
  for (const auto& [m, k, n] :
       {std::tuple{1, 1, 1}, std::tuple{2, 5, 3}, std::tuple{5, 6, 4},
        std::tuple{7, 3, 6}, std::tuple{4, 8, 9}, std::tuple{13, 5, 11}}) {
    const Matrix a = random_matrix(static_cast<std::size_t>(m),
                                   static_cast<std::size_t>(k), rng);
    const Matrix b = random_matrix(static_cast<std::size_t>(n),
                                   static_cast<std::size_t>(k), rng);
    Matrix got;
    matmul_a_bt(a, b, got);
    const Matrix expected = naive_matmul(a, b.transposed());
    ASSERT_EQ(got.rows(), expected.rows());
    ASSERT_EQ(got.cols(), expected.cols());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got.data()[i], expected.data()[i], 1e-10)
          << "shape " << m << "x" << k << " * (" << n << "x" << k << ")^T";
    }
  }
}

TEST(Matrix, ReshapeReusesCapacity) {
  Matrix m(4, 8);
  const std::size_t grown_first = m.reshape(8, 8);  // must grow
  EXPECT_GT(grown_first, 0u);
  EXPECT_EQ(m.rows(), 8u);
  EXPECT_EQ(m.cols(), 8u);
  const std::size_t cap = m.capacity();
  EXPECT_EQ(m.reshape(2, 3), 0u);  // shrink: buffer reused
  EXPECT_EQ(m.reshape(8, 8), 0u);  // back up within capacity: reused
  EXPECT_EQ(m.capacity(), cap);
}

}  // namespace
}  // namespace pfdrl::nn
