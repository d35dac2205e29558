/**
 * @file
 * Identity tests for the bit-packed BNN probe kernel, bnnDotPanel,
 * across ISA variants (tensor/bitpack.hh, tensor/bitpack_simd.cc).
 *
 * The whole point of the runtime dispatch is that it can never change a
 * memoization decision: every variant computes the same exact integers.
 * These tests pin that, over sizes that exercise the word-tail handling
 * (n = 1, 63, 64, 65, 511, 1024) and over panel shapes that exercise
 * every lane-group instantiation (1/2/4/8 and ragged counts).
 *
 * Variants the host CPU does not support are skipped, not failed; at
 * minimum the portable kernel is always exercised against bnnDotNaive.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "tensor/bitpack.hh"

namespace nlfm::tensor
{
namespace
{

const std::size_t kTailSizes[] = {1, 63, 64, 65, 511, 1024};
const std::size_t kRowCounts[] = {1, 2, 3, 5, 8, 16, 17};
const std::size_t kInputCounts[] = {1, 2, 3, 7, 8, 9, 16};

std::vector<float>
randomVector(Rng &rng, std::size_t n)
{
    std::vector<float> out(n);
    rng.fillNormal(out, 0.0, 1.0);
    return out;
}

/** All variants this CPU can run, portable first. */
std::vector<BnnIsa>
supportedIsas()
{
    std::vector<BnnIsa> isas = {BnnIsa::Portable};
    for (BnnIsa isa : {BnnIsa::Avx2, BnnIsa::Avx512})
        if (bnnSetIsa(isa))
            isas.push_back(isa);
    bnnSetIsa(bnnBestIsa());
    return isas;
}

/** bnnDotPanel of weight rows [0, rows) against one packed input. */
std::vector<std::int32_t>
panelOneInput(const BitMatrix &w, std::size_t rows, const BitVector &input)
{
    const std::uint64_t *words = input.raw().data();
    std::vector<std::int32_t> out(rows, -12345);
    bnnDotPanel(w, 0, rows, {&words, 1}, out);
    return out;
}

/** Restore the default dispatch after each forced-variant test. */
class BitpackIsaTest : public ::testing::Test
{
  protected:
    void TearDown() override { bnnSetIsa(bnnBestIsa()); }
};

TEST_F(BitpackIsaTest, DispatchReportsAndForcesVariants)
{
    EXPECT_EQ(bnnActiveIsa(), bnnBestIsa());
    for (BnnIsa isa : supportedIsas()) {
        ASSERT_TRUE(bnnSetIsa(isa));
        EXPECT_EQ(bnnActiveIsa(), isa);
        EXPECT_NE(bnnIsaName(isa), nullptr);
    }
    // Forcing an unsupported variant fails and leaves dispatch alone.
    ASSERT_TRUE(bnnSetIsa(BnnIsa::Portable));
    for (BnnIsa isa : {BnnIsa::Avx2, BnnIsa::Avx512}) {
        if (!bnnSetIsa(isa)) {
            EXPECT_EQ(bnnActiveIsa(), BnnIsa::Portable);
        }
    }
}

TEST_F(BitpackIsaTest, BnnDotMatchesNaiveOnEveryVariantAndTailSize)
{
    Rng rng(21);
    for (const std::size_t n : kTailSizes) {
        const auto a = randomVector(rng, n);
        const auto b = randomVector(rng, n);
        BitMatrix pa(1, n);
        pa.setRow(0, a);
        const BitVector pb = BitVector::fromFloats(b);
        const int naive = bnnDotNaive(a, b);
        for (BnnIsa isa : supportedIsas()) {
            ASSERT_TRUE(bnnSetIsa(isa));
            EXPECT_EQ(panelOneInput(pa, 1, pb)[0], naive)
                << "n=" << n << " isa=" << bnnIsaName(isa);
        }
    }
}

TEST_F(BitpackIsaTest, DotRowsIdenticalAcrossVariantsAndRowCounts)
{
    Rng rng(22);
    for (const std::size_t n : kTailSizes) {
        for (const std::size_t rows : kRowCounts) {
            BitMatrix w(rows, n);
            std::vector<std::vector<float>> row_floats;
            for (std::size_t r = 0; r < rows; ++r) {
                row_floats.push_back(randomVector(rng, n));
                w.setRow(r, row_floats.back());
            }
            const auto input = randomVector(rng, n);
            const BitVector packed = BitVector::fromFloats(input);

            for (BnnIsa isa : supportedIsas()) {
                ASSERT_TRUE(bnnSetIsa(isa));
                const auto out = panelOneInput(w, rows, packed);
                for (std::size_t r = 0; r < rows; ++r)
                    EXPECT_EQ(out[r], bnnDotNaive(row_floats[r], input))
                        << "n=" << n << " rows=" << rows << " r=" << r
                        << " isa=" << bnnIsaName(isa);
            }
        }
    }
}

TEST_F(BitpackIsaTest, PanelIdenticalAcrossVariantsAndShapes)
{
    Rng rng(23);
    const std::size_t n = 130; // three words, ragged tail
    for (const std::size_t rows : kRowCounts) {
        for (const std::size_t ins : kInputCounts) {
            BitMatrix w(rows, n);
            std::vector<std::vector<float>> row_floats;
            for (std::size_t r = 0; r < rows; ++r) {
                row_floats.push_back(randomVector(rng, n));
                w.setRow(r, row_floats.back());
            }
            std::vector<std::vector<float>> input_floats;
            std::vector<BitVector> packed;
            std::vector<const std::uint64_t *> words;
            for (std::size_t s = 0; s < ins; ++s) {
                input_floats.push_back(randomVector(rng, n));
                packed.push_back(
                    BitVector::fromFloats(input_floats.back()));
            }
            for (std::size_t s = 0; s < ins; ++s)
                words.push_back(packed[s].raw().data());

            for (BnnIsa isa : supportedIsas()) {
                ASSERT_TRUE(bnnSetIsa(isa));
                std::vector<std::int32_t> out(rows * ins, -12345);
                bnnDotPanel(w, 0, rows, words, out);
                for (std::size_t r = 0; r < rows; ++r)
                    for (std::size_t s = 0; s < ins; ++s)
                        EXPECT_EQ(out[r * ins + s],
                                  bnnDotNaive(row_floats[r],
                                              input_floats[s]))
                            << "rows=" << rows << " ins=" << ins
                            << " r=" << r << " s=" << s
                            << " isa=" << bnnIsaName(isa);
            }
        }
    }
}

TEST_F(BitpackIsaTest, PanelRowSubrangeMatchesWholeMatrix)
{
    Rng rng(24);
    const std::size_t n = 257;
    const std::size_t rows = 24;
    BitMatrix w(rows, n);
    std::vector<std::vector<float>> row_floats;
    for (std::size_t r = 0; r < rows; ++r) {
        row_floats.push_back(randomVector(rng, n));
        w.setRow(r, row_floats.back());
    }
    const auto input = randomVector(rng, n);
    const BitVector packed = BitVector::fromFloats(input);
    const std::uint64_t *words = packed.raw().data();

    for (BnnIsa isa : supportedIsas()) {
        ASSERT_TRUE(bnnSetIsa(isa));
        std::vector<std::int32_t> out(5 * 1, -12345);
        bnnDotPanel(w, 9, 5, {&words, 1}, out);
        for (std::size_t r = 0; r < 5; ++r)
            EXPECT_EQ(out[r], bnnDotNaive(row_floats[9 + r], input))
                << "isa=" << bnnIsaName(isa);
    }
}

TEST(BitMatrixLayoutTest, ContiguousWordMajorWithZeroPaddedTails)
{
    Rng rng(25);
    const std::size_t cols = 70; // two words, 58 padding bits
    BitMatrix w(3, cols);
    for (std::size_t r = 0; r < 3; ++r)
        w.setRow(r, randomVector(rng, cols));

    EXPECT_EQ(w.wordStride(), 2u);
    // Rows are consecutive in one buffer...
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_EQ(w.rowWords(r).data(), w.wordData() + r * w.wordStride());
    // ...and tail bits beyond cols stay zero, so XOR against the
    // (equally padded) input tail contributes no mismatches.
    for (std::size_t r = 0; r < 3; ++r) {
        const std::uint64_t last = w.rowWords(r)[1];
        EXPECT_EQ(last >> (cols - 64), 0u) << "row " << r;
    }
}

TEST(BitMatrixLayoutTest, SetRowOverwritesStaleBits)
{
    // Re-packing a row (network refresh after training) must not leave
    // old sign bits behind.
    const std::size_t cols = 65;
    BitMatrix w(1, cols);
    std::vector<float> plus(cols, 1.f);
    std::vector<float> minus(cols, -1.f);
    w.setRow(0, plus);
    for (std::size_t c = 0; c < cols; ++c)
        EXPECT_EQ(w.get(0, c), +1);
    w.setRow(0, minus);
    for (std::size_t c = 0; c < cols; ++c)
        EXPECT_EQ(w.get(0, c), -1);
    EXPECT_EQ(w.rowWords(0)[1] >> 1, 0u); // padding still zero
}

} // namespace
} // namespace nlfm::tensor
