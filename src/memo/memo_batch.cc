#include "memo/memo_batch.hh"

#include <algorithm>
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
 * One gate call of a phase: its live slots' input and output rows and,
 * on the BNN path, their binarized [x; h].
 */
struct GateRows
{
    std::vector<const float *> xRows;
    std::vector<const float *> hRows;
    std::vector<float *> outRows;
    std::span<const std::uint64_t *const> inputWords;
};

/**
 * Scratch that a whole phase shares: built by the calling thread (the
 * prepare step), then only read by the neuron ranges.
 */
struct PhaseScratch
{
    std::vector<GateRows> gates;
    std::vector<std::uint32_t> slotEntry; ///< table column of each slot
    /// One binarization per distinct [x; h] of the phase (BNN path).
    std::vector<nn::BinarizedInputs> inputs;

    /** Each gate call's rows, and the live slots' table columns. */
    void
    gather(std::span<const nn::GateCall> calls,
           std::span<const std::size_t> rows, std::size_t slot_base)
    {
        const std::size_t slots = rows.size();
        if (gates.size() < calls.size())
            gates.resize(calls.size());
        for (std::size_t g = 0; g < calls.size(); ++g) {
            GateRows &gate = gates[g];
            gate.xRows.resize(slots);
            gate.hRows.resize(slots);
            gate.outRows.resize(slots);
            tensor::gatherRowPointers(calls[g].x, rows, gate.xRows);
            tensor::gatherRowPointers(calls[g].h, rows, gate.hRows);
            tensor::gatherRowPointers(calls[g].preact, rows, gate.outRows);
        }
        // Hoisted out of the per-neuron decision loops: the offsets only
        // change per phase.
        slotEntry.resize(slots);
        for (std::size_t i = 0; i < slots; ++i)
            slotEntry[i] = static_cast<std::uint32_t>(slot_base + rows[i]);
    }

    /**
     * Binarize each gate call's [x; h] rows, once per distinct pair of
     * panels: gates that read the same panels (GRU's z and r, the four
     * LSTM gates) share one binarization.
     */
    void
    binarize(const nn::BinarizedNetwork &bnn,
             std::span<const nn::GateCall> calls,
             std::span<const std::size_t> rows)
    {
        if (inputs.size() < calls.size())
            inputs.resize(calls.size());
        std::size_t distinct = 0;
        for (std::size_t g = 0; g < calls.size(); ++g) {
            std::size_t k = 0;
            while (k < g && (&calls[k].x != &calls[g].x ||
                             &calls[k].h != &calls[g].h))
                ++k;
            gates[g].inputWords =
                k < g ? gates[k].inputWords
                      : inputs[distinct++].assign(
                            bnn.gate(calls[g].instance.instanceId),
                            calls[g].x, calls[g].h, rows);
        }
    }
};

/**
 * Scratch of one neuron range, written only by the thread that runs the
 * range (the Oracle uses its hits only). Line-aligned so
 * neighbouring ranges' counters never share a cache line.
 */
struct alignas(kCacheLineBytes) RangeScratch
{
    std::vector<std::int32_t> ybPanel; ///< yb_t, probe block x slots
    /// Each neuron of a group's missing slots: neuron k's at k * slots.
    std::vector<std::uint32_t> miss;
    // A neuron's compacted missing rows, and the evaluated dots
    // (neuron-major after a grouped call).
    std::vector<const float *> panelX;
    std::vector<const float *> panelH;
    std::vector<float> forward;
    std::vector<float> recurrent;
    /// Reused neurons per gate of the phase and live slot: gate g's at
    /// g * slots.
    std::vector<std::uint64_t> hits;
    std::uint64_t probeNs = 0;
    std::uint64_t decideNs = 0;
    std::uint64_t commitNs = 0;

    /**
     * Size the buffers for @p slots live slots and @p gates gates and
     * zero the counts.
     */
    void
    reset(std::size_t slots, std::size_t gates)
    {
        ybPanel.resize(kProbeNeuronBlock * slots);
        miss.resize(tensor::kGroupNeurons * slots);
        panelX.resize(slots);
        panelH.resize(slots);
        forward.resize(tensor::kGroupNeurons * slots);
        recurrent.resize(tensor::kGroupNeurons * slots);
        hits.assign(gates * slots, 0);
        probeNs = 0;
        decideNs = 0;
        commitNs = 0;
    }
};

/**
 * The calling thread's phase scratch. thread_local so concurrent chunks
 * never share it and no phase allocates once the buffers have grown.
 * The ranges reach it only through the caller's reference: a
 * thread_local named inside a range body would resolve to the worker
 * thread's own copy.
 */
PhaseScratch &
phaseScratch()
{
    thread_local PhaseScratch scratch;
    return scratch;
}

/**
 * The calling thread's scratch for a phase of @p gates gates split into
 * @p ranges neuron ranges over @p slots live slots, reset; reached as
 * phaseScratch is.
 */
std::span<RangeScratch>
rangeScratch(std::size_t ranges, std::size_t slots, std::size_t gates)
{
    thread_local std::vector<RangeScratch> tls_ranges;
    if (tls_ranges.size() < ranges)
        tls_ranges.resize(ranges);
    const std::span<RangeScratch> scratch(tls_ranges.data(), ranges);
    for (RangeScratch &s : scratch)
        s.reset(slots, gates);
    return scratch;
}

/** One neuron's table row: its entries for every slot of the engine. */
struct TableRow
{
    std::int32_t *bnn;
    std::uint8_t *valid;
    std::int64_t *draw;
    float *y;
};

#if defined(__x86_64__)

/**
 * AVX-512 form of the Phase-1 decision loop for the default engine
 * configuration (throttling on) over a dense slot range: eight slots
 * per step through the division-free comparison of memo_decision.hh —
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
                std::int64_t theta_raw, Q16 theta_q, std::uint32_t *miss)
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
    for (; i < slots; ++i) {
        const std::size_t e = e0 + i;
        const BnnDecision decision = bnnReuseDecision(
            yb_row[i], bnn_row[e], valid_row[e] != 0, draw_row[e], true,
            theta_q);
        if (decision.reuse) {
            out_rows[i][n] = y_row[e];
            draw_row[e] = decision.deltaRaw;
            ++hits[i];
        } else {
            miss[miss_count++] = static_cast<std::uint32_t>(i);
        }
    }
    return miss_count;
}

#endif // __x86_64__

/**
 * Scalar form of the Phase-1 decision loop, for every configuration:
 * bnnReuseDecision per live slot at the slot's own theta (serving slots
 * carry their own; in a closed batch every slot sits at the engine
 * default). Reusing slots emit the cached output (Eq. 14 top) and are
 * counted into @p hits, indexed by live slot position; misses go to
 * @p miss in ascending slot order. Forced inline for the same reason as
 * the commit helpers below.
 *
 * @return the miss count
 */
__attribute__((always_inline)) inline std::size_t
decideRow(const std::int32_t *yb_row,
          std::span<const std::uint32_t> slot_entry, const TableRow &row,
          const std::int64_t *theta_raw, bool throttle, std::uint64_t *hits,
          float *const *out_rows, std::size_t n, std::uint32_t *miss)
{
    std::size_t miss_count = 0;
    for (std::size_t i = 0; i < slot_entry.size(); ++i) {
        const std::uint32_t e = slot_entry[i];
        const BnnDecision decision = bnnReuseDecision(
            yb_row[i], row.bnn[e], row.valid[e] != 0, row.draw[e], throttle,
            Q16::fromRaw(theta_raw[e]));
        if (decision.reuse) {
            out_rows[i][n] = row.y[e];
            row.draw[e] = decision.deltaRaw;
            ++hits[i];
        } else {
            miss[miss_count++] = static_cast<std::uint32_t>(i);
        }
    }
    return miss_count;
}

// The two commit helpers below are forced inline: with more than one
// call site, gcc 12 keeps them out of line, and the calls made an 8-slot
// IMDB serving step about 2 % slower.

/**
 * Commit neuron n's missing slots (Eqs. 15-17): emit y_t = forward +
 * recurrent and refresh the whole entry. Miss m's dots sit at its live
 * slot miss[m] when they span the @p whole_panel, else at m.
 */
__attribute__((always_inline)) inline void
commitMisses(const GateRows &gate, const std::uint32_t *slot_entry,
             std::size_t n, const TableRow &row, const std::int32_t *yb_row,
             const std::uint32_t *miss, std::size_t miss_count,
             const float *forward, const float *recurrent, bool whole_panel)
{
    for (std::size_t m = 0; m < miss_count; ++m) {
        const std::size_t i = miss[m];
        const std::size_t d = whole_panel ? i : m;
        const std::uint32_t e = slot_entry[i];
        const float y_t = forward[d] + recurrent[d];
        gate.outRows[i][n] = y_t;
        row.y[e] = y_t;
        row.bnn[e] = yb_row[i];
        row.draw[e] = 0;
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
commitNeuron(const GateRows &gate, const std::uint32_t *slot_entry,
             const nn::GateParams &params, std::size_t n, const TableRow &row,
             const std::int32_t *yb_row, const std::uint32_t *miss,
             std::size_t miss_count, RangeScratch &s)
{
    const std::span<float> forward(s.forward.data(), miss_count);
    const std::span<float> recurrent(s.recurrent.data(), miss_count);
    if (miss_count == gate.xRows.size()) {
        tensor::dotLanesRows(params.wx.row(n), gate.xRows, forward);
        tensor::dotLanesRows(params.wh.row(n), gate.hRows, recurrent);
    } else {
        for (std::size_t m = 0; m < miss_count; ++m) {
            s.panelX[m] = gate.xRows[miss[m]];
            s.panelH[m] = gate.hRows[miss[m]];
        }
        tensor::dotLanesRows(params.wx.row(n), {s.panelX.data(), miss_count},
                             forward);
        tensor::dotLanesRows(params.wh.row(n), {s.panelH.data(), miss_count},
                             recurrent);
    }
    commitMisses(gate, slot_entry, n, row, yb_row, miss, miss_count,
                 forward.data(), recurrent.data(), false);
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
    out.deltaRaw.resize(bnn ? neurons : 0);
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
    for (std::size_t n = 0; n < neurons; ++n)
        out.deltaRaw[n] = deltaRaw_[n * slotStride_ + slot];
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
    nlfm_assert(state.cachedBnn.size() == (bnn ? neurons : 0) &&
                    state.deltaRaw.size() == (bnn ? neurons : 0),
                "restoreSlot: snapshot predictor mismatch (BNN tables "
                "vs this engine's configuration)");
    for (std::size_t n = 0; n < neurons; ++n) {
        const std::size_t e = n * slotStride_ + slot;
        cachedOutput_[e] = state.cachedOutput[n];
        valid_[e] = state.valid[n];
    }
    if (!bnn)
        return;
    for (std::size_t n = 0; n < neurons; ++n)
        cachedBnn_[n * slotStride_ + slot] = state.cachedBnn[n];
    for (std::size_t n = 0; n < neurons; ++n)
        deltaRaw_[n * slotStride_ + slot] = state.deltaRaw[n];
}

void
BatchMemoEngine::setSlotTheta(std::size_t slot, double theta)
{
    nlfm_assert(slot < batch_, "setSlotTheta: slot out of range");
    nlfm_assert(theta >= 0.0, "negative threshold");
    slotThetaRaw_[slot] = Q16::fromDouble(theta).raw();
    slotThetaFp_[slot] = theta;
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
    // The BNN tables back the BNN predictor only: only the arrays this
    // engine can touch are given memory.
    const bool bnn = options_.predictor == PredictorKind::Bnn;
    cachedBnn_ = {};
    deltaRaw_ = {};
    if (bnn) {
        cachedBnn_.assign(entries, 0);
        deltaRaw_.assign(entries, 0);
    }
    valid_.assign(entries, 0);
    slotThetaRaw_.assign(slotStride_, thetaQ_.raw());
    slotThetaFp_.assign(slotStride_, options_.theta);
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
    const nn::GateCall gate{instance, params, x, h, preact};
    evaluatePhase(instance, {&gate, 1}, rows, slot_base, {});
}

void
BatchMemoEngine::evaluatePhase(const nn::GateInstance &cell,
                               std::span<const nn::GateCall> gates,
                               std::span<const std::size_t> rows,
                               std::size_t slot_base,
                               const EpilogueBody &epilogue)
{
    if (gates.empty()) {
        BatchGateEvaluator::evaluatePhase(cell, gates, rows, slot_base,
                                          epilogue);
        return;
    }
    for (const nn::GateCall &gate : gates)
        nlfm_assert(gate.preact.cols() == gate.instance.neurons,
                    "preact panel width mismatch in batch memo engine");
    nlfm_assert(batch_ > 0, "evaluateGateBatch before beginBatch");

    const std::size_t slots = rows.size();
    thread_local std::vector<std::uint64_t> tls_hits;
    tls_hits.assign(gates.size() * slots, 0);
    const std::span<std::uint64_t> hits = tls_hits;
    if (options_.predictor == PredictorKind::Oracle)
        evaluateOraclePhase(cell, gates, rows, slot_base, epilogue, hits);
    else
        evaluateBnnPhase(cell, gates, rows, slot_base, epilogue, hits);

    // One processing step per gate and live slot: every neuron counts
    // toward the slot's total, the reused ones toward its hits, and its
    // trace gets the step's miss count.
    for (std::size_t g = 0; g < gates.size(); ++g) {
        const nn::GateInstance &instance = gates[g].instance;
        const std::uint64_t *const gate_hits = hits.data() + g * slots;
        const std::size_t stat_base = instance.instanceId * slotStride_;
        for (std::size_t i = 0; i < slots; ++i) {
            const std::size_t slot = slot_base + rows[i];
            slotReused_[stat_base + slot] += gate_hits[i];
            slotTotal_[stat_base + slot] += instance.neurons;
        }
        if (options_.recordTrace)
            for (std::size_t i = 0; i < slots; ++i)
                liveTrace(slot_base + rows[i])
                    .gates[instance.instanceId]
                    .misses.push_back(static_cast<std::uint32_t>(
                        instance.neurons - gate_hits[i]));
    }
}

SequenceTrace &
BatchMemoEngine::liveTrace(std::size_t slot)
{
    nlfm_assert(traces_.size() >= batch_,
                "trace recording after resetStats needs a new sequence");
    return traces_[traces_.size() - batch_ + slot];
}

void
BatchMemoEngine::evaluateOraclePhase(const nn::GateInstance &cell,
                                     std::span<const nn::GateCall> gates,
                                     std::span<const std::size_t> rows,
                                     std::size_t slot_base,
                                     const EpilogueBody &epilogue,
                                     std::span<std::uint64_t> hits)
{
    const std::size_t slots = rows.size();
    PhaseScratch &phase = phaseScratch();
    phase.gather(gates, rows, slot_base);
    const std::span<RangeScratch> range_scratch =
        rangeScratch(neuronRangeCount(cell, slots), slots, gates.size());

    forEachPhaseRange(cell, slots, epilogue, [&](std::size_t range,
                                                 std::size_t begin,
                                                 std::size_t end) {
        RangeScratch &s = range_scratch[range];
        for (std::size_t g = 0; g < gates.size(); ++g) {
            const nn::GateCall &gate = gates[g];
            float *const *const out_rows = phase.gates[g].outRows.data();
            std::uint64_t *const gate_hits = s.hits.data() + g * slots;
            // The Oracle always computes y_t (Eq. 9): the exact panel, as
            // DirectBatchEvaluator fills it, then each decision in place.
            gate.params.wx.matvecPanel(gate.x, rows, gate.preact, false,
                                       begin, end);
            gate.params.wh.matvecPanel(gate.h, rows, gate.preact, true,
                                       begin, end);
            for (std::size_t n = begin; n < end; ++n) {
                const std::size_t entry_base =
                    (gate.instance.neuronBase + n) * slotStride_;
                for (std::size_t i = 0; i < slots; ++i) {
                    const std::size_t slot = phase.slotEntry[i];
                    const std::size_t entry = entry_base + slot;
                    float &out = out_rows[i][n];
                    if (oracleReuseDecision(out, cachedOutput_[entry],
                                            valid_[entry] != 0,
                                            slotThetaFp_[slot])) {
                        // Use the stale value (Eq. 10); the entry is
                        // kept (Eq. 11).
                        out = cachedOutput_[entry];
                        ++gate_hits[i];
                    } else {
                        cachedOutput_[entry] = out;
                        valid_[entry] = 1;
                    }
                }
            }
        }
    });

    // Join: integer sums are the same in any order.
    for (const RangeScratch &s : range_scratch)
        for (std::size_t i = 0; i < hits.size(); ++i)
            hits[i] += s.hits[i];
}

void
BatchMemoEngine::evaluateBnnPhase(const nn::GateInstance &cell,
                                  std::span<const nn::GateCall> gates,
                                  std::span<const std::size_t> rows,
                                  std::size_t slot_base,
                                  const EpilogueBody &epilogue,
                                  std::span<std::uint64_t> hits)
{
    const bool throttle = options_.throttle;
    const std::size_t slots = rows.size();

    // Phase-time attribution (setPhaseSink): local accumulators per
    // range, flushed to the shared sink once at the end, so concurrent
    // chunk workers only contend on three atomic adds per phase.
    // timed == false is the default and costs one branch per phase
    // boundary.
    GatePhaseTimes *const sink = phaseSink_;
    const bool timed = sink != nullptr;

    // Prepare: state shared by the phase's neuron ranges, built here
    // once and only read by them. The input binarizations, one per
    // distinct [x; h] per live slot per timestep (the FMU input vector
    // of each sequence), are probe work.
    PhaseScratch &phase = phaseScratch();
    phase.gather(gates, rows, slot_base);
    const std::uint64_t t_binarize = timed ? nowNs() : 0;
    phase.binarize(*bnn_, gates, rows);
    std::uint64_t probe_ns = timed ? nowNs() - t_binarize : 0;
    const std::span<const std::uint32_t> slot_entry = phase.slotEntry;

    // The vector decision path covers the default configuration
    // (throttling on) over a dense slot range whose slots all sit at ONE
    // theta, with theta small enough that
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
    // Every gate of a cell binarizes inputs of the cell's width.
    const std::size_t input_bits = cell.xSize + cell.hSize;
    static const bool has_decide_isa =
        __builtin_cpu_supports("avx512f") > 0 &&
        __builtin_cpu_supports("avx512dq") > 0;
    const bool dense =
        slots > 0 && slot_entry[slots - 1] - slot_entry[0] + 1 == slots;
    const std::int64_t panel_theta_raw =
        slots > 0 ? slotThetaRaw_[slot_entry[0]] : thetaQ_.raw();
    const bool uniform_theta = std::all_of(
        slot_entry.begin(), slot_entry.end(), [&](std::uint32_t e) {
            return slotThetaRaw_[e] == panel_theta_raw;
        });
    const bool vector_decide =
        has_decide_isa && throttle && dense && uniform_theta &&
        tensor::bnnActiveIsa() == tensor::BnnIsa::Avx512 &&
        panel_theta_raw <
            std::numeric_limits<std::int64_t>::max() /
                (static_cast<std::int64_t>(2 * input_bits + 2) << 16);
#else
    constexpr bool vector_decide = false;
#endif

    // Per-range scratch, sized here so the ranges only write buffer
    // contents.
    const std::span<RangeScratch> range_scratch =
        rangeScratch(neuronRangeCount(cell, slots), slots, gates.size());

    // The one gate loop, for a group width fixed at compile time: per
    // probe block, probe every live slot of the block's neurons in one
    // panel (streaming the contiguous sign matrix block by block), then
    // per group of neurons decide each (Phase 1: hits resolve at once,
    // misses are queued with their yb_t still in the probe panel) and
    // commit the group's misses (Phase 2, Eqs. 15-17: full evaluation
    // and a refresh of the whole entry). Each neuron's decision reads
    // and writes only its own table entries and output column, so
    // deciding a group before committing it changes no bit. A range
    // runs it for every gate of the phase, then the epilogue.
    const auto run = [&](auto group_width) {
        constexpr std::size_t kGroup = decltype(group_width)::value;
        forEachPhaseRange(cell, slots, epilogue, [&](std::size_t range,
                                                     std::size_t begin,
                                                     std::size_t end) {
            RangeScratch &s = range_scratch[range];
            for (std::size_t gi = 0; gi < gates.size(); ++gi) {
                const nn::GateInstance &instance = gates[gi].instance;
                const nn::GateParams &params = gates[gi].params;
                const GateRows &gate = phase.gates[gi];
                const tensor::BitMatrix &signs =
                    bnn_->gate(instance.instanceId).weights();
                float *const *const out_rows = gate.outRows.data();
                std::uint64_t *const gate_hits = s.hits.data() + gi * slots;
                const auto table_row = [&](std::size_t n) {
                    const std::size_t base =
                        (instance.neuronBase + n) * slotStride_;
                    return TableRow{cachedBnn_.data() + base,
                                    valid_.data() + base,
                                    deltaRaw_.data() + base,
                                    cachedOutput_.data() + base};
                };
                std::uint64_t t_mark = 0;
                for (std::size_t n0 = begin; n0 < end;
                     n0 += kProbeNeuronBlock) {
                    const std::size_t block =
                        std::min(kProbeNeuronBlock, end - n0);
                    if (timed)
                        t_mark = nowNs();
                    tensor::bnnDotPanel(signs, n0, block, gate.inputWords,
                                        s.ybPanel);
                    if (timed)
                        s.probeNs += nowNs() - t_mark;

                    for (std::size_t g = 0; g < block; g += kGroup) {
                        // A constant for groups of one, so that their
                        // loops over k fold away (a run-time 1 cost 3-4 %
                        // of an IMDB serving step).
                        const std::size_t group =
                            kGroup == 1 ? 1 : std::min(kGroup, block - g);
                        const std::int32_t *yb_rows =
                            s.ybPanel.data() + g * slots;
                        if (timed)
                            t_mark = nowNs();
                        std::size_t miss_count[kGroup];
                        std::size_t misses = 0;
                        for (std::size_t k = 0; k < group; ++k) {
                            const std::size_t n = n0 + g + k;
                            const TableRow row = table_row(n);
                            std::uint32_t *miss = s.miss.data() + k * slots;
#if defined(__x86_64__)
                            if (vector_decide)
                                // Every slot sits at panel_theta_raw here.
                                miss_count[k] = decideRowAvx512(
                                    yb_rows + k * slots, slots,
                                    slot_entry[0], row.bnn, row.valid,
                                    row.draw, row.y, gate_hits, out_rows, n,
                                    panel_theta_raw,
                                    Q16::fromRaw(panel_theta_raw), miss);
                            else
#endif
                                miss_count[k] = decideRow(
                                    yb_rows + k * slots, slot_entry, row,
                                    slotThetaRaw_.data(), throttle,
                                    gate_hits, out_rows, n, miss);
                            misses += miss_count[k];
                        }
                        if (timed) {
                            const std::uint64_t t = nowNs();
                            s.decideNs += t - t_mark;
                            t_mark = t;
                        }
                        if (misses == 0)
                            continue;

                        // A whole group of four makes one dotLanesGroup
                        // call per weight matrix over the live panel
                        // where that issues fewer FMA instructions than
                        // a per-neuron call per neuron: per 8-column
                        // block, two 512-bit FMAs per live slot against
                        // one 256-bit FMA per missing (neuron, slot). Its
                        // dots are neuron-major, each neuron's indexed by
                        // live slot. Else each neuron is evaluated on its
                        // own.
                        bool grouped = false;
                        if constexpr (kGroup == tensor::kGroupNeurons) {
                            grouped = group == kGroup && 2 * slots < misses;
                            if (grouped) {
                                const float *wx[kGroup];
                                const float *wh[kGroup];
                                for (std::size_t k = 0; k < kGroup; ++k) {
                                    wx[k] = params.wx.row(n0 + g + k).data();
                                    wh[k] = params.wh.row(n0 + g + k).data();
                                }
                                const std::size_t dots = kGroup * slots;
                                tensor::dotLanesGroup(
                                    wx, instance.xSize, gate.xRows,
                                    {s.forward.data(), dots});
                                tensor::dotLanesGroup(
                                    wh, instance.hSize, gate.hRows,
                                    {s.recurrent.data(), dots});
                            }
                        }
                        for (std::size_t k = 0; k < group; ++k) {
                            if (miss_count[k] == 0)
                                continue;
                            const std::size_t n = n0 + g + k;
                            const std::int32_t *yb_row = yb_rows + k * slots;
                            const std::uint32_t *miss =
                                s.miss.data() + k * slots;
                            if (grouped)
                                commitMisses(gate, slot_entry.data(), n,
                                             table_row(n), yb_row, miss,
                                             miss_count[k],
                                             s.forward.data() + k * slots,
                                             s.recurrent.data() + k * slots,
                                             true);
                            else
                                commitNeuron(gate, slot_entry.data(), params,
                                             n, table_row(n), yb_row, miss,
                                             miss_count[k], s);
                        }
                        if (timed)
                            s.commitNs += nowNs() - t_mark;
                    }
                }
            }
        });
    };

    // Groups of four (the grouped commit) on vector-decide panels of
    // more than one 8-slot row block where dotLanesGroup is the wide
    // kernel; groups of one elsewhere. The grouped commit needs neither
    // of the first two conditions, but each moves step times, in
    // opposite directions by case (in-process A/Bs of groups of four
    // where this rule runs groups of one, 4-vCPU AVX-512 Xeon VM):
    // - slots > 8: on a panel of at most 8 live slots -- every serving
    //   panel of an 8-slot server -- one weight stream per matrix
    //   covers a neuron's misses and its few FMA chains overlap with
    //   the next neuron's, so deciding four first costs about what the
    //   halved FMA count saves. High-reuse 8-slot steps read 1.01-1.02x
    //   (IMDB at theta 1.0, RateRNN at 0.8) and 1.00x (BRC at 0.8); only
    //   RateRNN at 0.016, where nearly every neuron misses, gains
    //   (0.82-0.84x).
    // - vector_decide: the scalar decide runs ragged and mixed-theta
    //   panels. There groups of four read 0.87x on a ragged 16-sequence
    //   DeepSpeech2 batch and 0.95x on a 16-slot RateRNN panel at thetas
    //   0.016/0.8, but 1.02x on a 16-slot IMDB panel at 0.51/1.0.
    if (vector_decide && slots > 8 && tensor::dotLanesGroupIsWide())
        run(std::integral_constant<std::size_t, tensor::kGroupNeurons>{});
    else
        run(std::integral_constant<std::size_t, 1>{});

    // Join. Every neuron of a gate counts into one reuse counter per
    // slot, so each range counted its own hits; integer sums are the
    // same in any order.
    std::uint64_t decide_ns = 0;
    std::uint64_t commit_ns = 0;
    for (const RangeScratch &s : range_scratch) {
        for (std::size_t i = 0; i < hits.size(); ++i)
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
