/**
 * @file
 * Unit and property tests for the tensor library: dense kernels,
 * matrices, and the packed BNN bit-vectors (paper Eqs. 7-8).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hh"
#include "tensor/bitpack.hh"
#include "tensor/matrix.hh"
#include "tensor/vector_ops.hh"

namespace nlfm::tensor
{
namespace
{

std::vector<float>
randomVector(Rng &rng, std::size_t n, double scale = 1.0)
{
    std::vector<float> out(n);
    rng.fillNormal(out, 0.0, scale);
    return out;
}

// ----------------------------------------------------------- dense ops

TEST(VectorOpsTest, DotGolden)
{
    const std::vector<float> a = {1, 2, 3};
    const std::vector<float> b = {4, -5, 6};
    EXPECT_FLOAT_EQ(dot(a, b), 4 - 10 + 18);
}

TEST(VectorOpsTest, DotEmptyIsZero)
{
    std::vector<float> empty;
    EXPECT_FLOAT_EQ(dot(empty, empty), 0.f);
}

TEST(VectorOpsTest, DotMatchesLongDouble)
{
    Rng rng(1);
    for (std::size_t n : {1u, 7u, 64u, 333u, 2048u}) {
        const auto a = randomVector(rng, n);
        const auto b = randomVector(rng, n);
        long double reference = 0;
        for (std::size_t i = 0; i < n; ++i)
            reference += static_cast<long double>(a[i]) * b[i];
        EXPECT_NEAR(dot(a, b), static_cast<double>(reference),
                    1e-3 * std::sqrt(static_cast<double>(n)));
    }
}

TEST(VectorOpsTest, Axpy)
{
    std::vector<float> y = {1, 1, 1};
    const std::vector<float> x = {1, 2, 3};
    axpy(2.f, x, y);
    EXPECT_FLOAT_EQ(y[0], 3);
    EXPECT_FLOAT_EQ(y[2], 7);
}

TEST(VectorOpsTest, RelativeDifferenceConventions)
{
    EXPECT_DOUBLE_EQ(relativeDifference(2.0, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(relativeDifference(-2.0, -1.0), 0.5);
    EXPECT_DOUBLE_EQ(relativeDifference(0.0, 0.0), 0.0);
    EXPECT_TRUE(std::isinf(relativeDifference(0.0, 1.0)));
    EXPECT_DOUBLE_EQ(relativeDifference(5.0, 5.0), 0.0);
}

/**
 * A vector for the group-kernel test: normal values (mode 0), plus ±0,
 * subnormals and products that round to subnormals (mode 1), plus one
 * ±inf (mode 2) or one NaN (mode 3).
 */
std::vector<float>
edgeVector(Rng &rng, std::size_t n, std::size_t mode)
{
    // The NaN x86 arithmetic itself produces (inf - inf, 0 * inf), so
    // every NaN a result can hold has one bit pattern, whichever operand
    // order the compiler picks for a commutative add.
    const float nan = std::bit_cast<float>(0xffc00000u);
    const float inf = std::numeric_limits<float>::infinity();
    const float small[] = {0.f,     -0.f,
                           std::numeric_limits<float>::denorm_min(),
                           -1e-39f, 1e-20f, -1e-20f};
    auto out = randomVector(rng, n);
    if (mode == 0)
        return out;
    for (float &v : out)
        if (rng.uniformInt(4) == 0)
            v = small[rng.uniformInt(std::size(small))];
    const std::size_t at = rng.uniformInt(n);
    if (mode == 2)
        out[at] = rng.uniformInt(2) == 0 ? inf : -inf;
    else if (mode == 3)
        out[at] = nan;
    return out;
}

TEST(VectorOpsTest, GroupKernelVariantsMatchDotLanesBitwise)
{
    // Both dotLanesGroup variants, called directly, against dotLanes per
    // (row, neuron): every width tail n % 8 and 8-row block remainder,
    // on operands with ±0, ±inf, NaN and subnormals. Bit patterns are
    // compared, because NaN != NaN.
    Rng rng(5);
    bool wide_checked = false;
    for (const std::size_t n : {1u, 3u, 8u, 13u, 17u, 161u})
        for (const std::size_t rows : {1u, 5u, 8u, 9u, 16u, 17u}) {
            std::vector<std::vector<float>> w;
            std::vector<std::vector<float>> x;
            for (std::size_t k = 0; k < kGroupNeurons; ++k)
                w.push_back(edgeVector(rng, n, k));
            for (std::size_t r = 0; r < rows; ++r)
                x.push_back(edgeVector(rng, n, (r + n) % 4));
            const float *wp[kGroupNeurons];
            for (std::size_t k = 0; k < kGroupNeurons; ++k)
                wp[k] = w[k].data();
            std::vector<const float *> xp;
            for (const auto &row : x)
                xp.push_back(row.data());

            std::vector<float> expected(kGroupNeurons * rows);
            for (std::size_t k = 0; k < kGroupNeurons; ++k)
                for (std::size_t r = 0; r < rows; ++r)
                    expected[k * rows + r] = dotLanes(w[k], x[r]);
            const std::size_t bytes = expected.size() * sizeof(float);

            std::vector<float> per_neuron(expected.size());
            detail::dotLanesGroupPerNeuron(wp, n, xp.data(), rows,
                                           per_neuron.data());
            EXPECT_EQ(
                std::memcmp(per_neuron.data(), expected.data(), bytes), 0)
                << "per-neuron, n " << n << ", rows " << rows;

            if (!detail::cpuHasAvx512Group())
                continue;
            std::vector<float> grouped(expected.size());
            detail::dotLanesGroupAvx512(wp, n, xp.data(), rows,
                                        grouped.data());
            EXPECT_EQ(std::memcmp(grouped.data(), expected.data(), bytes), 0)
                << "AVX-512, n " << n << ", rows " << rows;
            wide_checked = true;
        }
    if (!wide_checked)
        GTEST_SKIP() << "the AVX-512 group kernel needs AVX-512F/DQ and an "
                        "AVX2+FMA build; only the per-neuron variant ran";
}

// -------------------------------------------------------------- matrix

TEST(MatrixTest, ShapeAndIndexing)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m.at(1, 2) = 5.f;
    EXPECT_FLOAT_EQ(m.at(1, 2), 5.f);
    EXPECT_FLOAT_EQ(m.row(1)[2], 5.f);
}

TEST(MatrixTest, MatvecGolden)
{
    Matrix m(2, 3);
    // [[1 2 3], [4 5 6]] * [1, 0, -1] = [-2, -2]
    float values[] = {1, 2, 3, 4, 5, 6};
    std::copy(values, values + 6, m.data().begin());
    const std::vector<float> x = {1, 0, -1};
    std::vector<float> y(2);
    m.matvec(x, y);
    EXPECT_FLOAT_EQ(y[0], -2);
    EXPECT_FLOAT_EQ(y[1], -2);
}

TEST(MatrixTest, TransposeAccumMatchesExplicit)
{
    Rng rng(2);
    Matrix m(5, 4);
    for (auto &v : m.data())
        v = static_cast<float>(rng.normal());
    const auto g = randomVector(rng, 5);
    std::vector<float> out(4, 0.f);
    m.matvecTransposeAccum(g, out);

    for (std::size_t c = 0; c < 4; ++c) {
        float expected = 0;
        for (std::size_t r = 0; r < 5; ++r)
            expected += m.at(r, c) * g[r];
        EXPECT_NEAR(out[c], expected, 1e-5);
    }
}

// ------------------------------------------------------------- bitpack

TEST(BitVectorTest, FromFloatsSigns)
{
    const std::vector<float> values = {1.f, -1.f, 0.f, -0.5f, 2.f};
    const BitVector bits = BitVector::fromFloats(values);
    EXPECT_EQ(bits.size(), 5u);
    EXPECT_EQ(bits.get(0), +1);
    EXPECT_EQ(bits.get(1), -1);
    // Eq. 7: x >= 0 maps to +1, so zero is positive.
    EXPECT_EQ(bits.get(2), +1);
    EXPECT_EQ(bits.get(3), -1);
    EXPECT_EQ(bits.get(4), +1);
}

TEST(BitVectorTest, SetAndGet)
{
    BitVector bits(130); // spans three words
    EXPECT_EQ(bits.get(129), -1);
    bits.set(129, true);
    EXPECT_EQ(bits.get(129), +1);
    bits.set(129, false);
    EXPECT_EQ(bits.get(129), -1);
}

TEST(BitVectorTest, AssignConcatMatchesManualConcat)
{
    Rng rng(3);
    const auto a = randomVector(rng, 37);
    const auto b = randomVector(rng, 91);
    std::vector<float> concat(a);
    concat.insert(concat.end(), b.begin(), b.end());

    BitVector via_concat(a.size() + b.size());
    via_concat.assignConcat(a, b);
    const BitVector direct = BitVector::fromFloats(concat);
    for (std::size_t i = 0; i < concat.size(); ++i)
        EXPECT_EQ(via_concat.get(i), direct.get(i)) << "index " << i;
}

/** BNN dot of row @p r of @p w against @p input: a one-row panel. */
int
rowDot(const BitMatrix &w, std::size_t r, const BitVector &input)
{
    const std::uint64_t *words = input.raw().data();
    std::int32_t out = 0;
    bnnDotPanel(w, r, 1, {&words, 1}, {&out, 1});
    return out;
}

/** Packed BNN dot of two float vectors (Eq. 8), through rowDot. */
int
packedDot(std::span<const float> a, std::span<const float> b)
{
    BitMatrix w(1, a.size());
    w.setRow(0, a);
    return rowDot(w, 0, BitVector::fromFloats(b));
}

TEST(BnnDotTest, MatchesNaiveOnRandomVectors)
{
    Rng rng(4);
    for (std::size_t n :
         {1u, 2u, 63u, 64u, 65u, 127u, 128u, 640u, 2048u, 2049u}) {
        const auto a = randomVector(rng, n);
        const auto b = randomVector(rng, n);
        EXPECT_EQ(packedDot(a, b), bnnDotNaive(a, b)) << "n=" << n;
    }
}

TEST(BnnDotTest, RangeAndParity)
{
    Rng rng(5);
    const std::size_t n = 321;
    for (int trial = 0; trial < 20; ++trial) {
        const auto a = randomVector(rng, n);
        const auto b = randomVector(rng, n);
        const int d = packedDot(a, b);
        EXPECT_LE(std::abs(d), static_cast<int>(n));
        // d = n - 2*mismatches keeps n's parity.
        EXPECT_EQ((d - static_cast<int>(n)) % 2, 0);
    }
}

TEST(BnnDotTest, IdenticalVectorsGiveN)
{
    Rng rng(6);
    const auto a = randomVector(rng, 200);
    EXPECT_EQ(packedDot(a, a), 200);
}

TEST(BnnDotTest, OppositeVectorsGiveMinusN)
{
    Rng rng(7);
    auto a = randomVector(rng, 100);
    // Drop exact zeros: -0.0f >= 0 binarizes to +1 on both sides.
    for (auto &v : a)
        if (v == 0.f)
            v = 1.f;
    auto b = a;
    for (auto &v : b)
        v = -v;
    EXPECT_EQ(packedDot(a, b), -100);
}

TEST(BitMatrixTest, RowsBinarizeIndependently)
{
    Rng rng(8);
    BitMatrix m(3, 50);
    std::vector<std::vector<float>> rows;
    for (std::size_t r = 0; r < 3; ++r) {
        rows.push_back(randomVector(rng, 50));
        m.setRow(r, rows.back());
    }
    const auto x = randomVector(rng, 50);
    const BitVector bx = BitVector::fromFloats(x);
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_EQ(rowDot(m, r, bx), bnnDotNaive(rows[r], x));
}

/** Property sweep: packed dot equals naive dot across many sizes. */
class BnnDotSizeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BnnDotSizeSweep, PackedEqualsNaive)
{
    Rng rng(100 + GetParam());
    const std::size_t n = GetParam();
    const auto a = randomVector(rng, n);
    const auto b = randomVector(rng, n);
    EXPECT_EQ(packedDot(a, b), bnnDotNaive(a, b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BnnDotSizeSweep,
                         ::testing::Values(1, 3, 16, 31, 32, 33, 63, 64,
                                           65, 100, 255, 256, 257, 511,
                                           512, 1000, 1024, 1440, 2048));

} // namespace
} // namespace nlfm::tensor
