#include "memo/memo_batch.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "memo/memo_decision.hh"
#include "tensor/bitpack.hh"
#include "tensor/vector_ops.hh"

namespace nlfm::memo
{

namespace
{

/**
 * Weight rows per probe panel (block x live-slots kernel calls). The
 * neuron split's block, so a run of split neurons holds whole probe
 * panels.
 */
constexpr std::size_t kProbeNeuronBlock = nn::kNeuronBlock;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Scratch that a whole gate call shares: built by the calling thread,
 * then only read by the neuron ranges. The binarized inputs are the BNN
 * path's.
 */
struct CallScratch
{
    std::vector<tensor::BitVector> inputs;
    std::vector<const std::uint64_t *> inputWords;
    std::vector<const float *> xRows;
    std::vector<const float *> hRows;
    std::vector<float *> outRows;
    std::vector<std::uint32_t> slotEntry; ///< table column of each slot

    /** The live slots' input and output rows and table columns. */
    void
    gather(const tensor::Matrix &x, const tensor::Matrix &h,
           tensor::Matrix &preact, std::span<const std::size_t> rows,
           std::size_t slot_base)
    {
        const std::size_t slots = rows.size();
        xRows.resize(slots);
        hRows.resize(slots);
        outRows.resize(slots);
        tensor::gatherRowPointers(x, rows, xRows);
        tensor::gatherRowPointers(h, rows, hRows);
        tensor::gatherRowPointers(preact, rows, outRows);
        // Hoisted out of the per-neuron decision loops: the offsets only
        // change per gate call.
        slotEntry.resize(slots);
        for (std::size_t i = 0; i < slots; ++i)
            slotEntry[i] = static_cast<std::uint32_t>(slot_base + rows[i]);
    }
};

/**
 * Scratch of one neuron range, written only by the thread that runs the
 * range (the Oracle uses its dots and hits). Line-aligned so
 * neighbouring ranges' counters never share a cache line.
 */
struct alignas(kCacheLineBytes) RangeScratch
{
    std::vector<std::int32_t> ybPanel; ///< yb_t, probe block x slots
    // Each neuron of a group's missing slots, as indices and (from the
    // vector decide only) as 8-slot bit blocks: neuron k's at k * slots
    // and k * ceil(slots / 8).
    std::vector<std::uint32_t> miss;
    std::vector<std::uint8_t> missBlocks;
    std::size_t missCount[tensor::kGroupNeurons] = {};
    // The evaluated panel's input rows and dots (neuron-major after a
    // grouped call), and each slot's column in a grouped call's union
    // panel.
    std::vector<const float *> panelX;
    std::vector<const float *> panelH;
    std::vector<float> forward;
    std::vector<float> recurrent;
    std::vector<std::uint32_t> column;
    std::vector<std::uint64_t> hits; ///< reused neurons per live slot
    std::uint64_t probeNs = 0;
    std::uint64_t decideNs = 0;
    std::uint64_t commitNs = 0;

    /** Size the buffers for @p slots live slots and zero the counts. */
    void
    reset(std::size_t slots)
    {
        ybPanel.resize(kProbeNeuronBlock * slots);
        miss.resize(tensor::kGroupNeurons * slots);
        missBlocks.resize(tensor::kGroupNeurons * ((slots + 7) / 8));
        panelX.resize(slots);
        panelH.resize(slots);
        forward.resize(tensor::kGroupNeurons * slots);
        recurrent.resize(tensor::kGroupNeurons * slots);
        column.resize(slots);
        hits.assign(slots, 0);
        probeNs = 0;
        decideNs = 0;
        commitNs = 0;
    }
};

/**
 * The calling thread's call scratch. thread_local so concurrent chunks
 * never share it and no gate call allocates once the buffers have
 * grown. The ranges reach it only through the caller's reference: a
 * thread_local named inside a range body would resolve to the worker
 * thread's own copy.
 */
CallScratch &
callScratch()
{
    thread_local CallScratch scratch;
    return scratch;
}

/**
 * The calling thread's scratch for a gate call split into @p ranges
 * neuron ranges over @p slots live slots, reset; reached as callScratch
 * is.
 */
std::span<RangeScratch>
rangeScratch(std::size_t ranges, std::size_t slots)
{
    thread_local std::vector<RangeScratch> tls_ranges;
    if (tls_ranges.size() < ranges)
        tls_ranges.resize(ranges);
    const std::span<RangeScratch> scratch(tls_ranges.data(), ranges);
    for (RangeScratch &s : scratch)
        s.reset(slots);
    return scratch;
}

#if defined(__x86_64__)

/** Bit j: slot 8b + j is missing for some neuron of the group. */
unsigned
unionBlock(const RangeScratch &s, std::size_t blocks, std::size_t b)
{
    unsigned bits = 0;
    for (std::size_t k = 0; k < tensor::kGroupNeurons; ++k)
        bits |= s.missBlocks[k * blocks + b];
    return bits;
}

/**
 * The grouped commit's rule, for a whole group of neurons decided by
 * the vector decide (so each neuron's miss bit blocks are set), where
 * dotLanesGroup is the wide kernel: one dotLanesGroup call per weight
 * matrix over the union of their missing slots pays when it issues
 * fewer FMA instructions than a per-neuron call per neuron. Per
 * 8-column block, that is two 512-bit FMAs per union slot against one
 * 256-bit FMA per missing (neuron, slot), @p misses in all.
 *
 * @return the union's size when the grouped call pays, else 0
 */
std::size_t
groupUnion(const RangeScratch &s, std::size_t slots, std::size_t misses)
{
    // The union holds at least the widest neuron's misses, so most
    // groups that cannot pay are known without counting it.
    const std::size_t widest =
        *std::max_element(std::begin(s.missCount), std::end(s.missCount));
    if (2 * widest >= misses)
        return 0;
    const std::size_t blocks = (slots + 7) / 8;
    std::size_t panel = 0;
    for (std::size_t b = 0; b < blocks; ++b)
        panel +=
            static_cast<std::size_t>(std::popcount(unionBlock(s, blocks, b)));
    return 2 * panel < misses ? panel : 0;
}

/**
 * A group's union panel: its missing slots, ascending, as the input
 * rows s.panelX / s.panelH, and each one's position in it as
 * s.column[slot].
 */
void
buildUnionPanel(RangeScratch &s, std::size_t slots,
                std::span<const float *const> x_rows,
                std::span<const float *const> h_rows)
{
    const std::size_t blocks = (slots + 7) / 8;
    std::size_t panel = 0;
    for (std::size_t b = 0; b < blocks; ++b)
        for (unsigned bits = unionBlock(s, blocks, b); bits != 0;
             bits &= bits - 1) {
            const std::size_t i =
                8 * b + static_cast<std::size_t>(std::countr_zero(bits));
            s.column[i] = static_cast<std::uint32_t>(panel);
            s.panelX[panel] = x_rows[i];
            s.panelH[panel] = h_rows[i];
            ++panel;
        }
}

/**
 * AVX-512 form of the Phase-1 decision loop for the default engine
 * configuration (fixed-point CMP, throttling on) over a dense slot
 * range: eight slots per step through the division-free comparison of
 * memo_decision.hh —
 *
 *     reuse ⟺ valid && (diff << 16) < (theta - prev + 1) * mag
 *             (with the yb_t == 0 branch folded in as diff == 0 &&
 *              prev <= theta)
 *
 * — integer arithmetic throughout, so decisions are bit-identical to
 * bnnReuseDecision (the caller guards against (theta+1)*mag overflow).
 * Misses are compress-stored into @p miss in ascending slot order;
 * reusing slots (the sparse outcome at low theta) are resolved in the
 * scalar mask loop, which is also where the Q16 division finally runs.
 *
 * Explicit intrinsics behind a target attribute for the same reason as
 * tensor/bitpack_simd.cc: -march=native is off limits under gcc 12.
 * Reuses are counted into @p hits, indexed by live slot position.
 *
 * @return the miss count
 */
__attribute__((target("avx512f,avx512dq,popcnt"))) std::size_t
decideRowAvx512(const std::int32_t *yb_row, std::size_t slots,
                std::size_t e0, const std::int32_t *bnn_row,
                const std::uint8_t *valid_row, std::int64_t *draw_row,
                const float *y_row, std::uint64_t *hits,
                float *const *out_rows, std::size_t n,
                std::int64_t theta_raw, Q16 theta_q, std::uint32_t *miss,
                std::uint8_t *miss_blocks)
{
    std::size_t miss_count = 0;
    const __m512i theta1 = _mm512_set1_epi64(theta_raw + 1);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i lane_idx =
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0);

    std::size_t i = 0;
    for (; i + 8 <= slots; i += 8) {
        // maskz_* forms of the widening/abs intrinsics: the plain forms
        // expand through _mm512_undefined_epi32(), which gcc 12 flags
        // with -Wmaybe-uninitialized.
        const __m512i yb = _mm512_maskz_cvtepi32_epi64(
            0xff, _mm256_loadu_si256(
                      reinterpret_cast<const __m256i *>(yb_row + i)));
        const __m512i ym = _mm512_maskz_cvtepi32_epi64(
            0xff, _mm256_loadu_si256(
                      reinterpret_cast<const __m256i *>(bnn_row + e0 + i)));
        const __mmask8 valid = _mm512_cmpneq_epi64_mask(
            _mm512_maskz_cvtepu8_epi64(
                0xff, _mm_loadl_epi64(reinterpret_cast<const __m128i *>(
                          valid_row + e0 + i))),
            zero);
        const __m512i prev =
            _mm512_loadu_si512(draw_row + e0 + i);
        const __m512i diff =
            _mm512_maskz_abs_epi64(0xff, _mm512_sub_epi64(yb, ym));
        const __m512i mag = _mm512_maskz_abs_epi64(0xff, yb);
        const __m512i scaled = _mm512_maskz_slli_epi64(0xff, diff, 16);
        const __m512i prod =
            _mm512_mullo_epi64(_mm512_sub_epi64(theta1, prev), mag);

        const unsigned nonzero = _mm512_cmpneq_epi64_mask(mag, zero);
        const unsigned lt = _mm512_cmplt_epi64_mask(scaled, prod);
        const unsigned zero_reuse =
            _mm512_cmpeq_epi64_mask(diff, zero) &
            _mm512_cmplt_epi64_mask(prev, theta1);
        const unsigned reuse = static_cast<unsigned>(valid) &
                               ((nonzero & lt) | (~nonzero & zero_reuse));
        const __mmask16 miss_m =
            static_cast<__mmask16>(~reuse & 0xffu);
        miss_blocks[i / 8] = static_cast<std::uint8_t>(miss_m);

        _mm512_mask_compressstoreu_epi32(
            miss + miss_count, miss_m,
            _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(i)),
                             lane_idx));
        miss_count += static_cast<std::size_t>(
            __builtin_popcount(miss_m));

        unsigned rm = reuse;
        while (rm != 0) {
            const int j = __builtin_ctz(rm);
            rm &= rm - 1;
            const std::size_t e = e0 + i + static_cast<std::size_t>(j);
            const std::int64_t yb_t = yb_row[i + j];
            if (yb_t != 0) {
                const std::int64_t d = std::abs(
                    yb_t - static_cast<std::int64_t>(bnn_row[e]));
                draw_row[e] += (d << 16) / std::abs(yb_t); // Eq. 13
            }
            out_rows[i + j][n] = y_row[e];
            ++hits[i + j];
        }
    }

    // Scalar tail (slots % 8) through the shared decision kernel.
    if (i < slots)
        miss_blocks[i / 8] = 0;
    for (; i < slots; ++i) {
        const std::size_t e = e0 + i;
        const BnnDecision decision =
            bnnReuseDecision(yb_row[i], bnn_row[e], valid_row[e] != 0,
                             draw_row[e], 0.0, true, true, 0.0, theta_q);
        if (decision.reuse) {
            out_rows[i][n] = y_row[e];
            draw_row[e] = decision.deltaRaw;
            ++hits[i];
        } else {
            miss[miss_count++] = static_cast<std::uint32_t>(i);
            miss_blocks[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
        }
    }
    return miss_count;
}

/**
 * Masked-store form of the miss commit (Eqs. 15-17) for the dense
 * full-panel path: forward/recurrent hold every slot's dots, and the
 * missing slots' table entries are contiguous, so one 8-slot step
 * refreshes y_m, yb_m, delta_b and the valid byte with four masked
 * stores. Only the per-sequence preact write stays scalar (each slot's
 * output row is a different buffer). The committed y_t is the same
 * float add the scalar loop performs.
 */
__attribute__((target(
    "avx512f,avx512dq,avx512bw,avx512vl,popcnt"))) void
commitRowAvx512(const std::uint8_t *miss_blocks, std::size_t slots,
                std::size_t e0, const float *forward,
                const float *recurrent, const std::int32_t *yb_row,
                float *y_row, std::int32_t *bnn_row,
                std::int64_t *draw_row, std::uint8_t *valid_row,
                float *const *out_rows, std::size_t n)
{
    const __m512i zero64 = _mm512_setzero_si512();
    const __m128i one8 = _mm_set1_epi8(1);
    std::size_t i = 0;
    for (; i + 8 <= slots; i += 8) {
        const __mmask8 m = miss_blocks[i / 8];
        if (m == 0)
            continue;
        const __m256 y_t = _mm256_add_ps(_mm256_loadu_ps(forward + i),
                                         _mm256_loadu_ps(recurrent + i));
        _mm256_mask_storeu_ps(y_row + e0 + i, m, y_t);
        _mm256_mask_storeu_epi32(
            bnn_row + e0 + i, m,
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(yb_row + i)));
        _mm512_mask_storeu_epi64(draw_row + e0 + i, m, zero64);
        _mm_mask_storeu_epi8(valid_row + e0 + i, m, one8);

        alignas(32) float y_s[8];
        _mm256_store_ps(y_s, y_t);
        unsigned rm = m;
        while (rm != 0) {
            const int j = __builtin_ctz(rm);
            rm &= rm - 1;
            out_rows[i + j][n] = y_s[j];
        }
    }
    for (; i < slots; ++i) {
        if (((miss_blocks[i / 8] >> (i % 8)) & 1) == 0)
            continue;
        const std::size_t e = e0 + i;
        const float y_t = forward[i] + recurrent[i];
        out_rows[i][n] = y_t;
        y_row[e] = y_t;
        bnn_row[e] = yb_row[i];
        draw_row[e] = 0;
        valid_row[e] = 1;
    }
}

#endif // __x86_64__

/**
 * One neuron's table row: its entries for every slot of the engine.
 * delta_b is Q16 in the fixed-point engine (draw) and double otherwise
 * (dfp); the other pointer is null.
 */
struct TableRow
{
    std::int32_t *bnn;
    std::uint8_t *valid;
    std::int64_t *draw;
    double *dfp;
    float *y;
};

// The two commit helpers below are forced inline: once both commit
// flows call them, gcc 12 keeps them out of line, and the calls made an
// 8-slot IMDB serving step about 2 % slower.

/**
 * Commit neuron n's missing slots (Eqs. 15-17): emit y_t = forward +
 * recurrent and refresh the whole entry. Miss m's dots sit at
 * column[miss[m]], or at m where @p column is null. When every slot
 * missed and the vector decide left @p miss_blocks, the dots are indexed
 * by slot either way and the masked-store commit runs.
 */
__attribute__((always_inline)) inline void
commitMisses(const CallScratch &call, std::size_t n, const TableRow &row,
             const std::int32_t *yb_row, const std::uint32_t *miss,
             std::size_t miss_count, const std::uint8_t *miss_blocks,
             const float *forward, const float *recurrent,
             const std::uint32_t *column)
{
    const std::size_t slots = call.slotEntry.size();
#if defined(__x86_64__)
    if (miss_blocks != nullptr && miss_count == slots) {
        commitRowAvx512(miss_blocks, slots, call.slotEntry[0], forward,
                        recurrent, yb_row, row.y, row.bnn, row.draw,
                        row.valid, call.outRows.data(), n);
        return;
    }
#endif
    for (std::size_t m = 0; m < miss_count; ++m) {
        const std::size_t i = miss[m];
        const std::size_t d = column != nullptr ? column[i] : m;
        const std::uint32_t e = call.slotEntry[i];
        const float y_t = forward[d] + recurrent[d];
        call.outRows[i][n] = y_t;
        row.y[e] = y_t;
        row.bnn[e] = yb_row[i];
        if (row.draw != nullptr)
            row.draw[e] = 0;
        else
            row.dfp[e] = 0.0;
        row.valid[e] = 1;
    }
}

/**
 * Phase 2 for one neuron with the per-neuron kernel: full evaluation of
 * its missing slots, one weight-row read for all of them, then
 * commitMisses. When every slot missed (the common case at low theta),
 * the already-gathered full panel pointers; partial misses go through
 * the compacted pointer list, which dotLanesRows evaluates in at most
 * ceil(miss/8) weight streams (single-width tail blocks, no 4/2/1
 * cascade), so a 15-of-16 miss costs two streams, same as the full
 * panel, minus the hit slot.
 */
__attribute__((always_inline)) inline void
commitNeuron(const CallScratch &call, const nn::GateParams &params,
             std::size_t n, const TableRow &row, const std::int32_t *yb_row,
             const std::uint32_t *miss, std::size_t miss_count,
             const std::uint8_t *miss_blocks, RangeScratch &s)
{
    const std::span<float> forward(s.forward.data(), miss_count);
    const std::span<float> recurrent(s.recurrent.data(), miss_count);
    if (miss_count == call.slotEntry.size()) {
        tensor::dotLanesRows(params.wx.row(n), call.xRows, forward);
        tensor::dotLanesRows(params.wh.row(n), call.hRows, recurrent);
    } else {
        for (std::size_t m = 0; m < miss_count; ++m) {
            s.panelX[m] = call.xRows[miss[m]];
            s.panelH[m] = call.hRows[miss[m]];
        }
        tensor::dotLanesRows(params.wx.row(n), {s.panelX.data(), miss_count},
                             forward);
        tensor::dotLanesRows(params.wh.row(n), {s.panelH.data(), miss_count},
                             recurrent);
    }
    commitMisses(call, n, row, yb_row, miss, miss_count, miss_blocks,
                 forward.data(), recurrent.data(), nullptr);
}

} // namespace

BatchMemoEngine::BatchMemoEngine(const nn::RnnNetwork &network,
                                 nn::BinarizedNetwork *bnn,
                                 const MemoOptions &options)
    : network_(network), bnn_(bnn), options_(options),
      thetaQ_(Q16::fromDouble(options.theta))
{
    nlfm_assert(options.theta >= 0.0, "negative threshold");
    nlfm_assert(options.predictor != PredictorKind::Bnn || bnn != nullptr,
                "BNN predictor requires a binarized mirror network");
}

void
BatchMemoEngine::setTheta(double theta)
{
    nlfm_assert(theta >= 0.0, "negative threshold");
    options_.theta = theta;
    thetaQ_ = Q16::fromDouble(theta);
    // The default changed: every slot follows it (per-slot overrides are
    // per-tenant state and do not survive a global re-threshold).
    if (!slotThetaFp_.empty()) {
        std::fill(slotThetaRaw_.begin(), slotThetaRaw_.end(),
                  thetaQ_.raw());
        std::fill(slotThetaFp_.begin(), slotThetaFp_.end(),
                  options_.theta);
        nonDefaultThetaSlots_ = 0;
    }
}

void
BatchMemoEngine::resetSlot(std::size_t slot)
{
    nlfm_assert(slot < batch_, "resetSlot: slot out of range");
    // Invalidate the memo entries: a cleared valid byte forces the first
    // evaluation of every neuron to miss, which refreshes y_m / yb_m /
    // delta_b wholesale — exactly the cold-start state beginBatch leaves.
    const std::size_t neurons = network_.totalNeurons();
    for (std::size_t n = 0; n < neurons; ++n)
        valid_[n * slotStride_ + slot] = 0;
    const std::size_t gates = network_.gateInstances().size();
    for (std::size_t gate = 0; gate < gates; ++gate) {
        slotReused_[gate * slotStride_ + slot] = 0;
        slotTotal_[gate * slotStride_ + slot] = 0;
    }
    if (options_.recordTrace)
        liveTrace(slot).gates.assign(gates, {});
    setSlotTheta(slot, options_.theta);
}

void
BatchMemoEngine::startNextSequence()
{
    nlfm_assert(batch_ == 1, "startNextSequence: not a one-slot engine");
    std::fill(valid_.begin(), valid_.end(), 0);
    if (options_.recordTrace)
        traces_.push_back(
            {std::vector<GateStepTrace>(network_.gateInstances().size())});
}

void
BatchMemoEngine::clearStats()
{
    std::fill(slotReused_.begin(), slotReused_.end(), 0);
    std::fill(slotTotal_.begin(), slotTotal_.end(), 0);
    traces_.clear();
}

void
MemoEngine::beginBatch(std::size_t total_sequences)
{
    nlfm_assert(total_sequences == 1,
                "MemoEngine runs one sequence per call; batches of ",
                total_sequences, " take a BatchMemoEngine");
    if (slotCount() == 0)
        BatchMemoEngine::beginBatch(1);
    else
        startNextSequence();
}

void
BatchMemoEngine::admitSlot(std::size_t slot, double theta)
{
    resetSlot(slot);
    if (theta >= 0.0)
        setSlotTheta(slot, theta);
}

void
BatchMemoEngine::exportSlot(std::size_t slot, SlotMemoState &out) const
{
    nlfm_assert(slot < batch_, "exportSlot: slot out of range");
    const std::size_t neurons = network_.totalNeurons();
    const bool bnn = options_.predictor == PredictorKind::Bnn;
    out.cachedOutput.resize(neurons);
    out.valid.resize(neurons);
    out.cachedBnn.resize(bnn ? neurons : 0);
    out.deltaRaw.resize(bnn && options_.fixedPoint ? neurons : 0);
    out.deltaFp.resize(bnn && !options_.fixedPoint ? neurons : 0);
    // Strided gather: entry n of the snapshot is table column slot of
    // neuron n. One pass per allocated array keeps each table's access
    // pattern a simple fixed-stride walk.
    for (std::size_t n = 0; n < neurons; ++n) {
        const std::size_t e = n * slotStride_ + slot;
        out.cachedOutput[n] = cachedOutput_[e];
        out.valid[n] = valid_[e];
    }
    if (!bnn)
        return;
    for (std::size_t n = 0; n < neurons; ++n)
        out.cachedBnn[n] = cachedBnn_[n * slotStride_ + slot];
    if (options_.fixedPoint) {
        for (std::size_t n = 0; n < neurons; ++n)
            out.deltaRaw[n] = deltaRaw_[n * slotStride_ + slot];
    } else {
        for (std::size_t n = 0; n < neurons; ++n)
            out.deltaFp[n] = deltaFp_[n * slotStride_ + slot];
    }
}

void
BatchMemoEngine::restoreSlot(std::size_t slot, const SlotMemoState &state)
{
    nlfm_assert(slot < batch_, "restoreSlot: slot out of range");
    const std::size_t neurons = network_.totalNeurons();
    const bool bnn = options_.predictor == PredictorKind::Bnn;
    nlfm_assert(state.cachedOutput.size() == neurons &&
                    state.valid.size() == neurons,
                "restoreSlot: snapshot neuron count mismatch (session "
                "state from a different network?)");
    nlfm_assert(state.cachedBnn.size() == (bnn ? neurons : 0),
                "restoreSlot: snapshot predictor mismatch (BNN tables "
                "vs this engine's configuration)");
    nlfm_assert(state.deltaRaw.size() ==
                        (bnn && options_.fixedPoint ? neurons : 0) &&
                    state.deltaFp.size() ==
                        (bnn && !options_.fixedPoint ? neurons : 0),
                "restoreSlot: snapshot delta representation mismatch "
                "(fixedPoint configuration differs)");
    for (std::size_t n = 0; n < neurons; ++n) {
        const std::size_t e = n * slotStride_ + slot;
        cachedOutput_[e] = state.cachedOutput[n];
        valid_[e] = state.valid[n];
    }
    if (!bnn)
        return;
    for (std::size_t n = 0; n < neurons; ++n)
        cachedBnn_[n * slotStride_ + slot] = state.cachedBnn[n];
    if (options_.fixedPoint) {
        for (std::size_t n = 0; n < neurons; ++n)
            deltaRaw_[n * slotStride_ + slot] = state.deltaRaw[n];
    } else {
        for (std::size_t n = 0; n < neurons; ++n)
            deltaFp_[n * slotStride_ + slot] = state.deltaFp[n];
    }
}

void
BatchMemoEngine::setSlotTheta(std::size_t slot, double theta)
{
    nlfm_assert(slot < batch_, "setSlotTheta: slot out of range");
    nlfm_assert(theta >= 0.0, "negative threshold");
    const bool was_default = slotThetaFp_[slot] == options_.theta;
    slotThetaRaw_[slot] = Q16::fromDouble(theta).raw();
    slotThetaFp_[slot] = theta;
    const bool is_default = theta == options_.theta;
    if (was_default && !is_default)
        ++nonDefaultThetaSlots_;
    else if (!was_default && is_default)
        --nonDefaultThetaSlots_;
}

double
BatchMemoEngine::slotTheta(std::size_t slot) const
{
    nlfm_assert(slot < batch_, "slotTheta: slot out of range");
    return slotThetaFp_[slot];
}

void
BatchMemoEngine::beginBatch(std::size_t total_sequences)
{
    batch_ = total_sequences;
    // Pad the slot stride to a cache line of valid_ for multi-chunk
    // batches (single-chunk batches have no cross-chunk sharing to
    // avoid, so they skip the padding and its memory cost).
    slotStride_ = batch_ <= kCacheLineBytes
                      ? batch_
                      : (batch_ + kCacheLineBytes - 1) / kCacheLineBytes *
                            kCacheLineBytes;
    const std::size_t entries = network_.totalNeurons() * slotStride_;
    cachedOutput_.assign(entries, 0.f);
    // The BNN tables back the BNN predictor only, and options_.
    // fixedPoint selects exactly one throttling representation at
    // construction: only the arrays this engine can touch are given
    // memory.
    const bool bnn = options_.predictor == PredictorKind::Bnn;
    cachedBnn_ = {};
    deltaRaw_ = {};
    deltaFp_ = {};
    if (bnn) {
        cachedBnn_.assign(entries, 0);
        if (options_.fixedPoint)
            deltaRaw_.assign(entries, 0);
        else
            deltaFp_.assign(entries, 0.0);
    }
    valid_.assign(entries, 0);
    slotThetaRaw_.assign(slotStride_, thetaQ_.raw());
    slotThetaFp_.assign(slotStride_, options_.theta);
    nonDefaultThetaSlots_ = 0;
    const std::size_t gates = network_.gateInstances().size();
    slotReused_.assign(gates * slotStride_, 0);
    slotTotal_.assign(gates * slotStride_, 0);
    traces_.assign(options_.recordTrace ? batch_ : 0,
                   {std::vector<GateStepTrace>(gates)});
}

void
BatchMemoEngine::evaluateGateBatch(const nn::GateInstance &instance,
                                   const nn::GateParams &params,
                                   const tensor::Matrix &x,
                                   const tensor::Matrix &h,
                                   std::span<const std::size_t> rows,
                                   std::size_t slot_base,
                                   tensor::Matrix &preact)
{
    nlfm_assert(preact.cols() == instance.neurons,
                "preact panel width mismatch in batch memo engine");
    nlfm_assert(batch_ > 0, "evaluateGateBatch before beginBatch");

    thread_local std::vector<std::uint64_t> tls_hits;
    tls_hits.assign(rows.size(), 0);
    const std::span<std::uint64_t> hits = tls_hits;
    if (options_.predictor == PredictorKind::Oracle)
        evaluateOracleBatch(instance, params, x, h, rows, slot_base, preact,
                            hits);
    else
        evaluateBnnBatch(instance, params, x, h, rows, slot_base, preact,
                         hits);

    // One processing step per live slot: every neuron counts toward the
    // slot's total, the reused ones toward its hits, and its trace gets
    // the step's miss count.
    const std::size_t stat_base = instance.instanceId * slotStride_;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::size_t slot = slot_base + rows[i];
        slotReused_[stat_base + slot] += hits[i];
        slotTotal_[stat_base + slot] += instance.neurons;
    }
    if (options_.recordTrace)
        for (std::size_t i = 0; i < rows.size(); ++i)
            liveTrace(slot_base + rows[i])
                .gates[instance.instanceId]
                .misses.push_back(
                    static_cast<std::uint32_t>(instance.neurons - hits[i]));
}

SequenceTrace &
BatchMemoEngine::liveTrace(std::size_t slot)
{
    nlfm_assert(traces_.size() >= batch_,
                "trace recording after resetStats needs a new sequence");
    return traces_[traces_.size() - batch_ + slot];
}

void
BatchMemoEngine::evaluateOracleBatch(const nn::GateInstance &instance,
                                     const nn::GateParams &params,
                                     const tensor::Matrix &x,
                                     const tensor::Matrix &h,
                                     std::span<const std::size_t> rows,
                                     std::size_t slot_base,
                                     tensor::Matrix &preact,
                                     std::span<std::uint64_t> hits)
{
    const std::size_t slots = rows.size();
    // The Oracle always computes y_t (Eq. 9), so the whole panel goes
    // through the blocked kernel: each weight row is streamed once
    // across every live slot.
    CallScratch &call = callScratch();
    call.gather(x, h, preact, rows, slot_base);
    const std::span<RangeScratch> range_scratch =
        rangeScratch(neuronRangeCount(instance, slots), slots);

    forEachNeuronRange(instance, slots, [&](std::size_t range,
                                            std::size_t begin,
                                            std::size_t end) {
        RangeScratch &s = range_scratch[range];
        const std::span<float> forward(s.forward.data(), slots);
        const std::span<float> recurrent(s.recurrent.data(), slots);
        for (std::size_t n = begin; n < end; ++n) {
            tensor::dotLanesRows(params.wx.row(n), call.xRows, forward);
            tensor::dotLanesRows(params.wh.row(n), call.hRows, recurrent);
            const std::size_t entry_base =
                (instance.neuronBase + n) * slotStride_;
            for (std::size_t i = 0; i < slots; ++i) {
                const std::size_t slot = call.slotEntry[i];
                const std::size_t entry = entry_base + slot;
                const float y_t = forward[i] + recurrent[i];
                const bool reuse = oracleReuseDecision(
                    y_t, cachedOutput_[entry], valid_[entry] != 0,
                    slotThetaFp_[slot]);
                if (reuse) {
                    // Use the stale value (Eq. 10); the entry is kept
                    // (Eq. 11).
                    call.outRows[i][n] = cachedOutput_[entry];
                    ++s.hits[i];
                } else {
                    call.outRows[i][n] = y_t;
                    cachedOutput_[entry] = y_t;
                    valid_[entry] = 1;
                }
            }
        }
    });

    // Join: integer sums are the same in any order.
    for (const RangeScratch &s : range_scratch)
        for (std::size_t i = 0; i < slots; ++i)
            hits[i] += s.hits[i];
}

void
BatchMemoEngine::evaluateBnnBatch(const nn::GateInstance &instance,
                                  const nn::GateParams &params,
                                  const tensor::Matrix &x,
                                  const tensor::Matrix &h,
                                  std::span<const std::size_t> rows,
                                  std::size_t slot_base,
                                  tensor::Matrix &preact,
                                  std::span<std::uint64_t> hits)
{
    nn::BinarizedGate &bgate = bnn_->gate(instance.instanceId);
    const bool throttle = options_.throttle;
    const bool fixed_point = options_.fixedPoint;
    const std::size_t slots = rows.size();

    // Phase-time attribution (setPhaseSink): local accumulators per
    // range, flushed to the shared sink once at the end, so concurrent
    // chunk workers only contend on three atomic adds per gate call.
    // timed == false is the default and costs one branch per phase
    // boundary.
    GatePhaseTimes *const sink = phaseSink_;
    const bool timed = sink != nullptr;
    const std::uint64_t t_call = timed ? nowNs() : 0;

    // State shared by the gate call's neuron ranges, built here once and
    // only read by them.
    CallScratch &call = callScratch();

    // One input binarization per live slot per timestep (the FMU input
    // vector of each sequence); re-sized only when the gate width
    // changes.
    const std::size_t width = instance.xSize + instance.hSize;
    if (call.inputs.size() < slots)
        call.inputs.resize(slots);
    call.inputWords.resize(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        if (call.inputs[i].size() != width)
            call.inputs[i] = tensor::BitVector(width);
        call.inputs[i].assignConcat(x.row(rows[i]), h.row(rows[i]));
        call.inputWords[i] = call.inputs[i].raw().data();
    }
    // Input binarization is probe work.
    std::uint64_t probe_ns = timed ? nowNs() - t_call : 0;

    call.gather(x, h, preact, rows, slot_base);

    const std::span<const std::uint64_t *const> input_words =
        call.inputWords;
    const std::span<const float *const> x_rows = call.xRows;
    const std::span<const float *const> h_rows = call.hRows;
    float *const *const out_rows = call.outRows.data();
    const std::span<const std::uint32_t> slot_entry = call.slotEntry;

    // The vector decision path covers the default configuration
    // (fixed-point CMP + throttling) over a dense slot range whose slots
    // all sit at ONE theta, with theta small enough that
    // (theta + 1) * mag cannot leave 64 bits; anything else — including
    // a forced non-AVX-512 probe ISA, so variant comparisons measure a
    // genuinely ISA-free fallback — takes the scalar loop, which reads
    // the per-slot value. Both make bit-identical decisions.
    //
    // Uniform means equal ACROSS THE PANEL, not equal to the engine
    // default: a serving theta controller retunes whole panels away
    // from the default (every admission inherits the current floor),
    // and demanding the default here silently pushed every controlled
    // run onto the scalar loop — reuse went up while throughput went
    // down. Only genuinely mixed panels (floor mid-transition) pay the
    // scalar path now.
#if defined(__x86_64__)
    static const bool has_decide_isa =
        __builtin_cpu_supports("avx512f") > 0 &&
        __builtin_cpu_supports("avx512dq") > 0 &&
        __builtin_cpu_supports("avx512bw") > 0 &&
        __builtin_cpu_supports("avx512vl") > 0; // commit's masked stores
    const bool dense =
        slots > 0 && slot_entry[slots - 1] - slot_entry[0] + 1 == slots;
    const std::int64_t panel_theta_raw =
        slots > 0 ? slotThetaRaw_[slot_entry[0]] : thetaQ_.raw();
    bool uniform_theta = true;
    if (nonDefaultThetaSlots_ != 0)
        for (std::size_t i = 1; i < slots && uniform_theta; ++i)
            uniform_theta =
                slotThetaRaw_[slot_entry[i]] == panel_theta_raw;
    const bool vector_decide =
        has_decide_isa && fixed_point && throttle && dense &&
        uniform_theta &&
        tensor::bnnActiveIsa() == tensor::BnnIsa::Avx512 &&
        panel_theta_raw <
            std::numeric_limits<std::int64_t>::max() /
                (static_cast<std::int64_t>(2 * width + 2) << 16);
#else
    constexpr bool vector_decide = false;
#endif

    // Per-range scratch, sized here so the ranges only write buffer
    // contents.
    const std::span<RangeScratch> range_scratch =
        rangeScratch(neuronRangeCount(instance, slots), slots);

    const auto table_row = [&](std::size_t n) {
        const std::size_t base = (instance.neuronBase + n) * slotStride_;
        return TableRow{cachedBnn_.data() + base, valid_.data() + base,
                        fixed_point ? deltaRaw_.data() + base : nullptr,
                        fixed_point ? nullptr : deltaFp_.data() + base,
                        cachedOutput_.data() + base};
    };

    // Probe panel: all live slots of a block of neurons per kernel
    // invocation, streaming the contiguous sign matrix block by block.
    const auto probe = [&](RangeScratch &s, std::size_t n0,
                           std::size_t block) {
        const std::uint64_t t_mark = timed ? nowNs() : 0;
        tensor::bnnDotPanel(bgate.weights(), n0, block, input_words,
                            s.ybPanel);
        if (timed)
            s.probeNs += nowNs() - t_mark;
    };

#if defined(__x86_64__)
    // Decide four neurons before committing them, for the grouped commit
    // (groupUnion), on vector-decide panels of more than one 8-slot row
    // block where dotLanesGroup is the wide kernel. On a panel of at
    // most 8 live slots -- every serving panel of an 8-slot server --
    // one weight stream per matrix covers a neuron's misses, its few
    // independent FMA chains leave the FMA ports idle and overlap with
    // the next neuron's, so halving the FMA count saves little, and
    // deciding four first costs more. In an in-process A/B against the
    // parent's per-neuron flow (Sapphire Rapids VM), the grouped flow
    // ran an IMDB step with 1-8 live slots up to 6 % slower at theta
    // 0.51-1.0 and BRC's up to 8 % slower at 0.8, although 37-87 % of
    // their groups passed the FMA rule; with 16 slots IMDB and BRC moved
    // by -5 to +2 %, and DeepSpeech2 took 0.71-0.74x the time.
    if (vector_decide && slots > 8 && tensor::dotLanesGroupIsWide()) {
        const std::size_t slot_blocks = (slots + 7) / 8;
        forEachNeuronRange(instance, slots, [&](std::size_t range,
                                                std::size_t begin,
                                                std::size_t end) {
            RangeScratch &s = range_scratch[range];
            std::uint64_t t_mark = 0;
            for (std::size_t n0 = begin; n0 < end;
                 n0 += kProbeNeuronBlock) {
                const std::size_t block =
                    std::min(kProbeNeuronBlock, end - n0);
                probe(s, n0, block);
                // Each neuron's decision reads and writes only its own
                // table entries and output column, so deciding a group
                // before committing it changes no bit.
                for (std::size_t g = 0; g < block;
                     g += tensor::kGroupNeurons) {
                    const std::size_t group =
                        std::min(tensor::kGroupNeurons, block - g);
                    const std::int32_t *yb_rows =
                        s.ybPanel.data() + g * slots;
                    if (timed)
                        t_mark = nowNs();
                    std::size_t misses = 0;
                    for (std::size_t k = 0; k < group; ++k) {
                        const std::size_t n = n0 + g + k;
                        const TableRow row = table_row(n);
                        s.missCount[k] = decideRowAvx512(
                            yb_rows + k * slots, slots, slot_entry[0],
                            row.bnn, row.valid, row.draw, row.y,
                            s.hits.data(), out_rows, n, panel_theta_raw,
                            Q16::fromRaw(panel_theta_raw),
                            s.miss.data() + k * slots,
                            s.missBlocks.data() + k * slot_blocks);
                        misses += s.missCount[k];
                    }
                    if (timed) {
                        const std::uint64_t t = nowNs();
                        s.decideNs += t - t_mark;
                        t_mark = t;
                    }

                    // One dotLanesGroup call per weight matrix where it
                    // pays, its dots neuron-major and each neuron's
                    // indexed by s.column; else each neuron on its own.
                    const std::size_t panel =
                        group == tensor::kGroupNeurons
                            ? groupUnion(s, slots, misses)
                            : 0;
                    if (panel != 0) {
                        buildUnionPanel(s, slots, x_rows, h_rows);
                        const float *wx[tensor::kGroupNeurons];
                        const float *wh[tensor::kGroupNeurons];
                        for (std::size_t k = 0; k < tensor::kGroupNeurons;
                             ++k) {
                            wx[k] = params.wx.row(n0 + g + k).data();
                            wh[k] = params.wh.row(n0 + g + k).data();
                        }
                        const std::size_t dots =
                            tensor::kGroupNeurons * panel;
                        tensor::dotLanesGroup(wx, instance.xSize,
                                              {s.panelX.data(), panel},
                                              {s.forward.data(), dots});
                        tensor::dotLanesGroup(wh, instance.hSize,
                                              {s.panelH.data(), panel},
                                              {s.recurrent.data(), dots});
                    }
                    for (std::size_t k = 0; k < group; ++k) {
                        const std::size_t miss_count = s.missCount[k];
                        if (miss_count == 0)
                            continue;
                        const std::size_t n = n0 + g + k;
                        const std::int32_t *yb_row = yb_rows + k * slots;
                        const std::uint32_t *miss = s.miss.data() + k * slots;
                        const std::uint8_t *miss_blocks =
                            s.missBlocks.data() + k * slot_blocks;
                        if (panel == 0)
                            commitNeuron(call, params, n, table_row(n),
                                         yb_row, miss, miss_count,
                                         miss_blocks, s);
                        else
                            commitMisses(call, n, table_row(n), yb_row,
                                         miss, miss_count, miss_blocks,
                                         s.forward.data() + k * panel,
                                         s.recurrent.data() + k * panel,
                                         s.column.data());
                    }
                    if (timed)
                        s.commitNs += nowNs() - t_mark;
                }
            }
        });
    } else
#endif
    forEachNeuronRange(instance, slots, [&](std::size_t range,
                                            std::size_t begin,
                                            std::size_t end) {
        RangeScratch &s = range_scratch[range];
        std::uint64_t t_mark = 0;
        for (std::size_t n0 = begin; n0 < end; n0 += kProbeNeuronBlock) {
            const std::size_t block = std::min(kProbeNeuronBlock, end - n0);
            probe(s, n0, block);

            // One neuron at a time.
            for (std::size_t r = 0; r < block; ++r) {
                const std::size_t n = n0 + r;
                const std::int32_t *yb_row = s.ybPanel.data() + r * slots;
                const TableRow row = table_row(n);
                const std::uint8_t *miss_blocks = nullptr;

                // Phase 1: the cheap BNN probe decides per slot; hits
                // are resolved immediately, misses are queued (the
                // queued yb_t stays readable in yb_row).
                std::size_t miss_count = 0;
                if (timed)
                    t_mark = nowNs();
#if defined(__x86_64__)
                if (vector_decide) {
                    // vector_decide implies every slot sits at the same
                    // theta, so the panel-wide value is exact here.
                    miss_count = decideRowAvx512(
                        yb_row, slots, slot_entry[0], row.bnn, row.valid,
                        row.draw, row.y, s.hits.data(), out_rows, n,
                        panel_theta_raw, Q16::fromRaw(panel_theta_raw),
                        s.miss.data(), s.missBlocks.data());
                    miss_blocks = s.missBlocks.data();
                } else
#endif
                for (std::size_t i = 0; i < slots; ++i) {
                    const std::uint32_t e = slot_entry[i];
                    const std::int32_t yb_t = yb_row[i];

                    const std::int64_t prev_raw =
                        fixed_point ? row.draw[e] : 0;
                    const double prev_fp = fixed_point ? 0.0 : row.dfp[e];
                    // Per-slot threshold: slots carry their own theta
                    // in serving mode (identical to the engine default
                    // in closed-batch mode).
                    const BnnDecision decision = bnnReuseDecision(
                        yb_t, row.bnn[e], row.valid[e] != 0, prev_raw,
                        prev_fp, throttle, fixed_point, slotThetaFp_[e],
                        Q16::fromRaw(slotThetaRaw_[e]));

                    if (decision.reuse) {
                        // Eq. 14 top: bypass the DPU, emit the cached
                        // output.
                        out_rows[i][n] = row.y[e];
                        if (fixed_point)
                            row.draw[e] = decision.deltaRaw;
                        else
                            row.dfp[e] = decision.deltaFp;
                        ++s.hits[i];
                    } else {
                        s.miss[miss_count++] =
                            static_cast<std::uint32_t>(i);
                    }
                }

                // Phase 2 (Eqs. 15-17): full evaluation of the missing
                // slots; refresh the whole entry.
                if (timed) {
                    const std::uint64_t t = nowNs();
                    s.decideNs += t - t_mark;
                    t_mark = t;
                }
                if (miss_count == 0)
                    continue;
                commitNeuron(call, params, n, row, yb_row, s.miss.data(),
                             miss_count, miss_blocks, s);
                if (timed)
                    s.commitNs += nowNs() - t_mark;
            }
        }
    });

    // Join. Every neuron of the gate counts into one reuse counter per
    // slot, so each range counted its own hits; integer sums are the
    // same in any order.
    std::uint64_t decide_ns = 0;
    std::uint64_t commit_ns = 0;
    for (const RangeScratch &s : range_scratch) {
        for (std::size_t i = 0; i < slots; ++i)
            hits[i] += s.hits[i];
        probe_ns += s.probeNs;
        decide_ns += s.decideNs;
        commit_ns += s.commitNs;
    }
    if (timed) {
        sink->probeNs.fetch_add(probe_ns, std::memory_order_relaxed);
        sink->decideNs.fetch_add(decide_ns, std::memory_order_relaxed);
        sink->commitNs.fetch_add(commit_ns, std::memory_order_relaxed);
    }
}

ReuseStats
BatchMemoEngine::stats() const
{
    ReuseStats stats(network_.gateInstances().size());
    for (std::size_t gate = 0; gate < network_.gateInstances().size();
         ++gate) {
        std::uint64_t reused = 0;
        std::uint64_t total = 0;
        for (std::size_t slot = 0; slot < batch_; ++slot) {
            reused += slotReused_[gate * slotStride_ + slot];
            total += slotTotal_[gate * slotStride_ + slot];
        }
        stats.record(gate, reused, total);
    }
    return stats;
}

double
BatchMemoEngine::slotReuseFraction(std::size_t slot) const
{
    nlfm_assert(slot < batch_, "slot out of range");
    std::uint64_t reused = 0;
    std::uint64_t total = 0;
    for (std::size_t gate = 0; gate < network_.gateInstances().size();
         ++gate) {
        reused += slotReused_[gate * slotStride_ + slot];
        total += slotTotal_[gate * slotStride_ + slot];
    }
    return total == 0 ? 0.0
                      : static_cast<double>(reused) /
                            static_cast<double>(total);
}

} // namespace nlfm::memo
