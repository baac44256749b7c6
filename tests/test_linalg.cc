/**
 * @file
 * Tests for the linear algebra substrate: Matrix container and the
 * sequential reference algorithms (matmul, Boolean matmul, DFT/FFT).
 */

#include <gtest/gtest.h>

#include "linalg/matrix.hh"
#include "linalg/reference.hh"
#include "sim/rng.hh"

namespace {

using namespace ot::linalg;
using ot::sim::Rng;

TEST(Matrix, ConstructAndIndex)
{
    IntMatrix m(2, 3, 7);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m(1, 2), 7u);
    m(0, 1) = 42;
    EXPECT_EQ(m(0, 1), 42u);
}

TEST(Matrix, FromRowsAndEquality)
{
    auto m = IntMatrix::fromRows({{1, 2}, {3, 4}});
    IntMatrix same(2, 2);
    same(0, 0) = 1;
    same(0, 1) = 2;
    same(1, 0) = 3;
    same(1, 1) = 4;
    EXPECT_EQ(m, same);
}

TEST(Matrix, Identity)
{
    auto id = IntMatrix::identity(3);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_EQ(id(i, j), i == j ? 1u : 0u);
}

TEST(Matrix, RowColTransposed)
{
    auto m = IntMatrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    EXPECT_EQ(m.row(1), (std::vector<std::uint64_t>{4, 5, 6}));
    EXPECT_EQ(m.col(2), (std::vector<std::uint64_t>{3, 6}));
    auto t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t(2, 1), 6u);
}

TEST(Reference, MatMulSmall)
{
    auto a = IntMatrix::fromRows({{1, 2}, {3, 4}});
    auto b = IntMatrix::fromRows({{5, 6}, {7, 8}});
    auto c = matMul(a, b);
    EXPECT_EQ(c, IntMatrix::fromRows({{19, 22}, {43, 50}}));
}

TEST(Reference, MatMulIdentity)
{
    Rng rng(1);
    IntMatrix a(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            a(i, j) = rng.uniform(0, 99);
    EXPECT_EQ(matMul(a, IntMatrix::identity(5)), a);
    EXPECT_EQ(matMul(IntMatrix::identity(5), a), a);
}

TEST(Reference, VecMatMulMatchesMatMul)
{
    Rng rng(2);
    IntMatrix b(6, 6);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            b(i, j) = rng.uniform(0, 9);
    std::vector<std::uint64_t> a{1, 2, 3, 4, 5, 6};
    auto c = vecMatMul(a, b);
    IntMatrix arow(1, 6);
    for (std::size_t j = 0; j < 6; ++j)
        arow(0, j) = a[j];
    auto full = matMul(arow, b);
    for (std::size_t j = 0; j < 6; ++j)
        EXPECT_EQ(c[j], full(0, j));
}

TEST(Reference, BoolMatMulBasics)
{
    auto a = BoolMatrix::fromRows({{1, 0}, {0, 1}});
    auto b = BoolMatrix::fromRows({{0, 1}, {1, 0}});
    EXPECT_EQ(boolMatMul(a, b), b);
    // Anything times all-ones row-reachable.
    auto ones = BoolMatrix(2, 2, 1);
    EXPECT_EQ(boolMatMul(ones, ones), ones);
}

TEST(Matrix, RowDataWalksContiguousRows)
{
    auto m = IntMatrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    EXPECT_EQ(m.rowData(1)[2], 6u);
    EXPECT_EQ(m.rowData(0) + 3, m.rowData(1));
    m.rowData(1)[0] = 9;
    EXPECT_EQ(m(1, 0), 9u);
}

TEST(Reference, MatMulRectangular)
{
    // (3 x 5) * (5 x 2), worked by hand.
    auto a = IntMatrix::fromRows(
        {{1, 0, 2, 0, 1}, {0, 3, 0, 1, 0}, {2, 1, 1, 1, 4}});
    auto b = IntMatrix::fromRows({{1, 2}, {0, 1}, {3, 0}, {1, 1}, {2, 5}});
    auto c = matMul(a, b);
    ASSERT_EQ(c.rows(), 3u);
    ASSERT_EQ(c.cols(), 2u);
    EXPECT_EQ(c, IntMatrix::fromRows({{9, 7}, {1, 4}, {14, 26}}));
}

TEST(Reference, MatMulOneByOne)
{
    EXPECT_EQ(matMul(IntMatrix(1, 1, 6), IntMatrix(1, 1, 7)),
              IntMatrix(1, 1, 42));
    EXPECT_EQ(boolMatMul(BoolMatrix(1, 1, 1), BoolMatrix(1, 1, 1)),
              BoolMatrix(1, 1, 1));
    EXPECT_EQ(boolMatMul(BoolMatrix(1, 1, 1), BoolMatrix(1, 1, 0)),
              BoolMatrix(1, 1, 0));
}

TEST(Reference, BoolMatMulZeroRowsAndColumns)
{
    // Row 1 of a is all zero, so row 1 of the product is; column 2 of
    // b is all zero, so column 2 of the product is.  Rectangular:
    // (3 x 4) * (4 x 3).
    auto a = BoolMatrix::fromRows({{1, 0, 0, 1}, {0, 0, 0, 0}, {0, 1, 1, 0}});
    auto b = BoolMatrix::fromRows(
        {{0, 1, 0}, {0, 0, 0}, {1, 0, 0}, {1, 1, 0}});
    EXPECT_EQ(boolMatMul(a, b),
              BoolMatrix::fromRows({{1, 1, 0}, {0, 0, 0}, {1, 0, 0}}));
}

TEST(Reference, BoolMatPowIsReachability)
{
    // Path graph 0 -> 1 -> 2 -> 3 (directed).
    BoolMatrix adj(4, 4, 0);
    adj(0, 1) = adj(1, 2) = adj(2, 3) = 1;
    auto two = boolMatPow(adj, 2);
    EXPECT_EQ(two(0, 2), 1);
    EXPECT_EQ(two(0, 3), 0);
    auto three = boolMatPow(adj, 3);
    EXPECT_EQ(three(0, 3), 1);
    EXPECT_EQ(boolMatPow(adj, 0), BoolMatrix::identity(4));
}

TEST(Reference, DftOfImpulseIsFlat)
{
    std::vector<Complex> x(8, 0.0);
    x[0] = 1.0;
    auto spectrum = dftNaive(x);
    for (const auto &v : spectrum)
        EXPECT_NEAR(std::abs(v - Complex(1.0, 0.0)), 0.0, 1e-9);
}

TEST(Reference, DftOfConstantIsImpulse)
{
    std::vector<Complex> x(8, 1.0);
    auto spectrum = dftNaive(x);
    EXPECT_NEAR(std::abs(spectrum[0] - Complex(8.0, 0.0)), 0.0, 1e-9);
    for (std::size_t k = 1; k < 8; ++k)
        EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
}

TEST(Reference, FftMatchesNaiveDft)
{
    Rng rng(3);
    for (std::size_t n : {2, 4, 8, 16, 64, 256}) {
        std::vector<Complex> x(n);
        for (auto &v : x)
            v = Complex(rng.uniformReal() - 0.5, rng.uniformReal() - 0.5);
        EXPECT_LT(maxAbsDiff(fft(x), dftNaive(x)), 1e-6) << "n = " << n;
    }
}

TEST(Reference, MaxAbsDiff)
{
    std::vector<Complex> a{1.0, 2.0};
    std::vector<Complex> b{1.0, Complex(2.0, 3.0)};
    EXPECT_NEAR(maxAbsDiff(a, b), 3.0, 1e-12);
}

} // namespace
