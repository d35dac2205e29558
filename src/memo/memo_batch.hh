/// @file
/// The fuzzy memoization engines.
///
/// BatchMemoEngine is the BatchGateEvaluator that carries the memo table
/// of a whole batch, with per-neuron-per-sequence entries (y_m, yb_m,
/// delta_b, valid) laid out structure-of-arrays with the sequence slot
/// as the minor dimension, so a neuron's weight row is read once and its
/// decision loop walks contiguous slot entries. The decisions themselves
/// (Eqs. 9-14) live in memo/memo_decision.hh.
///
/// Every sequence slot evolves exactly as it would in a batch of its own
/// — including independent per-sequence throttling state — so outputs and
/// aggregated ReuseStats do not depend on the batch around a sequence,
/// its chunk size or the worker count. tests/reference_test pins a
/// one-sequence run against an independent scalar transcription of the
/// equations.
///
/// Three usage modes share the same tables:
///
///  - **Closed batch** (RnnNetwork::forwardBatch): beginBatch() cold-starts
///    every slot, the whole batch runs to completion, stats() reduces the
///    per-slot counters.
///  - **One sequence** (RnnNetwork::forward): MemoEngine, a one-slot
///    engine whose counters and traces add up over forward calls.
///  - **Serving** (serve::FleetServer): beginBatch() sizes the table to the
///    slot pool once, then admitSlot()/resetSlot() recycle individual slots
///    as sequences complete and new requests are admitted mid-flight, each
///    with its own reuse threshold (setSlotTheta). A recycled slot starts
///    as cold as a fresh beginBatch — no memo state crosses tenants.

#ifndef NLFM_MEMO_MEMO_BATCH_HH
#define NLFM_MEMO_MEMO_BATCH_HH

#include <atomic>

#include "common/aligned.hh"
#include "common/fixed_point.hh"
#include "memo/memo_options.hh"
#include "memo/reuse_stats.hh"
#include "nn/batch_evaluator.hh"
#include "nn/binarized.hh"

namespace nlfm::memo
{

/// Time attribution of the BNN gate-evaluation phases, accumulated by
/// BatchMemoEngine when a sink is attached (setPhaseSink). Probe covers
/// input binarization + the bit-packed yb_t panel kernel; decide the
/// reuse decisions (Phase 1); commit the miss FMA panels + table
/// refresh (Phase 2). Decide and commit are timed per group of neurons
/// (four on the grouped commit's panels, else one), with no commit span
/// for a group that has no miss. The totals are summed thread time, not
/// wall time: a phase whose neurons are split over a pool
/// (BatchGateEvaluator::evaluatePhase) adds every range's time, so one
/// phase can add more than its wall duration. Atomic because a
/// serving tick's chunks may run on concurrent pool workers, each
/// flushing its per-phase totals once. Consumers (the serving tracer)
/// difference the counters between reads — values are cumulative ns
/// since attachment.
struct GatePhaseTimes
{
    std::atomic<std::uint64_t> probeNs{0};
    std::atomic<std::uint64_t> decideNs{0};
    std::atomic<std::uint64_t> commitNs{0};
};

/// Dense snapshot of one slot's memo table — every neuron's y_m / yb_m /
/// delta_b / valid byte, gathered out of the engine's strided SoA
/// columns. The serving tier's session warm-start carrier
/// (serve::SessionStore): restoring a snapshot into any slot of an
/// engine with the same network and predictor configuration makes that
/// slot continue deciding exactly where the exporting slot stopped.
/// Only the arrays the exporting engine's predictor allocates are
/// filled (Oracle engines carry no yb_m/delta_b), and restoreSlot
/// asserts the same shape.
struct SlotMemoState
{
    std::vector<float> cachedOutput;     ///< y_m per neuron
    std::vector<std::int32_t> cachedBnn; ///< yb_m (BNN predictor only)
    std::vector<std::int64_t> deltaRaw;  ///< delta_b, Q16 raw (BNN only)
    std::vector<std::uint8_t> valid;

    bool empty() const { return valid.empty(); }
};

/// Batched fuzzy memoization evaluator.
class BatchMemoEngine : public nn::BatchGateEvaluator
{
  public:
    /// @param network the full-precision network (must outlive the engine)
    /// @param bnn     binarized mirror; required for the BNN predictor,
    ///                may be null for the Oracle
    /// @param options options.theta is the default per-slot threshold
    BatchMemoEngine(const nn::RnnNetwork &network,
                    nn::BinarizedNetwork *bnn, const MemoOptions &options);

    /// Change the default theta; also resets every slot's threshold to it.
    void setTheta(double theta);
    double theta() const { return options_.theta; }
    const MemoOptions &options() const { return options_; }

    /// Cold-start every slot's memo table and reuse counters.
    void beginBatch(std::size_t total_sequences) override;

    /// Number of slots sized by the last beginBatch.
    std::size_t slotCount() const { return batch_; }

    /// Cold-start one slot: invalidate its memo entries, zero its reuse
    /// counters, clear its trace and restore the default theta. The
    /// per-tenant isolation primitive of the serving path — after
    /// resetSlot the slot is indistinguishable from one freshly sized by
    /// beginBatch.
    ///
    /// Must not run concurrently with evaluateGateBatch calls touching
    /// the same slot (the serving driver admits between ticks, so this
    /// holds by construction there).
    void resetSlot(std::size_t slot);

    /// resetSlot + setSlotTheta in one call: the admission step of the
    /// serving scheduler. @p theta < 0 keeps the engine default.
    void admitSlot(std::size_t slot, double theta = -1.0);

    /// Gather one slot's memo entries (y_m, yb_m, delta_b, valid — the
    /// arrays this engine's configuration allocates) into a dense
    /// snapshot: the completion-side half of session warm-start. Same
    /// concurrency contract as resetSlot. @p out is resized; safe to
    /// reuse across calls.
    void exportSlot(std::size_t slot, SlotMemoState &out) const;

    /// Scatter a snapshot back into one slot's memo entries — the
    /// admission-side half of warm-start. Call AFTER admitSlot: the
    /// per-request theta and the reuse counters are admission state,
    /// not session state, so restore deliberately leaves both alone
    /// (slotReuseFraction stays per-request). The snapshot must come
    /// from an engine with the same network and the same predictor
    /// (asserted via array shapes).
    void restoreSlot(std::size_t slot, const SlotMemoState &state);

    /// Per-request reuse threshold of one slot (Eq. 14's theta). A gate
    /// call whose live slots sit at more than one theta takes the scalar
    /// decision loop instead of the AVX-512 one; decisions stay
    /// bit-identical either way (the scalar kernel honors the per-slot
    /// value).
    void setSlotTheta(std::size_t slot, double theta);
    double slotTheta(std::size_t slot) const;

    /// A one-gate phase.
    void evaluateGateBatch(const nn::GateInstance &instance,
                           const nn::GateParams &params,
                           const tensor::Matrix &x, const tensor::Matrix &h,
                           std::span<const std::size_t> rows,
                           std::size_t slot_base,
                           tensor::Matrix &preact) override;

    /// Every gate of the phase, then its epilogue, in one neuron split:
    /// a prepare step on the calling thread (row gathers, and one input
    /// binarization per distinct [x; h] of the phase), one range body
    /// per run of neurons (every gate's gate loop, then the epilogue),
    /// and a join that adds up each gate's per-range counters.
    void evaluatePhase(const nn::GateInstance &cell,
                       std::span<const nn::GateCall> gates,
                       std::span<const std::size_t> rows,
                       std::size_t slot_base,
                       const EpilogueBody &epilogue) override;

    /// Reuse counters of the current batch, reduced over slots in slot
    /// order — a pure function of per-slot counters, so identical for
    /// every worker count.
    ReuseStats stats() const;

    /// Reuse fraction of one sequence slot (since its last reset).
    double slotReuseFraction(std::size_t slot) const;

    /// With options.recordTrace, one SequenceTrace per sequence: per gate
    /// instance, the neurons evaluated (missed) at each of its gate
    /// calls, in the cell's processing order — the input of the E-PUR
    /// timing and energy models. The last slotCount() entries are the
    /// live slots', in slot order (in a closed batch, all of them);
    /// beginBatch and resetSlot clear them. Empty without recordTrace.
    const std::vector<SequenceTrace> &traces() const { return traces_; }

    /// Attach (or detach, with nullptr — the default) the phase-time
    /// sink. Null means ZERO timing overhead: the hot loop's clock
    /// reads sit behind one branch on this pointer. Enabled, the BNN
    /// path adds two clock reads per group of one or four neurons (one
    /// where the group has no miss) plus two per probe block —
    /// serving-telemetry cost, opt-in like everything else.
    /// The Oracle path records nothing (it has no probe/decide split).
    /// The sink must outlive the engine or be detached first.
    void setPhaseSink(GatePhaseTimes *sink) { phaseSink_ = sink; }

  protected:
    /// Start the next sequence in slot 0 of a one-slot engine: invalidate
    /// its memo entries, as resetSlot does, but keep its counters, theta
    /// and earlier traces; with recordTrace, append the trace it records
    /// into from now on.
    void startNextSequence();

    /// Zero every slot's reuse counters and drop every trace.
    void clearStats();

  private:
    /// The trace @p slot records into (recordTrace).
    SequenceTrace &liveTrace(std::size_t slot);

    // evaluatePhase for a phase with gate calls. Both add each live
    // slot's reused neurons of gate g to hits[g * rows.size() + live
    // slot position].
    void evaluateOraclePhase(const nn::GateInstance &cell,
                             std::span<const nn::GateCall> gates,
                             std::span<const std::size_t> rows,
                             std::size_t slot_base,
                             const EpilogueBody &epilogue,
                             std::span<std::uint64_t> hits);
    void evaluateBnnPhase(const nn::GateInstance &cell,
                          std::span<const nn::GateCall> gates,
                          std::span<const std::size_t> rows,
                          std::size_t slot_base, const EpilogueBody &epilogue,
                          std::span<std::uint64_t> hits);

    const nn::RnnNetwork &network_;
    nn::BinarizedNetwork *bnn_;
    MemoOptions options_;
    Q16 thetaQ_;

    /// Phase-time sink (setPhaseSink); null = timing off.
    GatePhaseTimes *phaseSink_ = nullptr;

    std::size_t batch_ = 0;

    /// Slot stride of the SoA tables: batch_, rounded up to a cache line
    /// of the smallest element (valid_, 1 byte) for batches larger than
    /// one line of slots. Together with the cache-line-aligned
    /// allocations, chunk boundaries that fall on 64-slot multiples —
    /// which the BatchForwardOptions::chunkSize default of 64
    /// guarantees — never split a table cache line between chunks, so
    /// concurrent chunk workers cannot false-share memo state. A caller
    /// choosing a smaller chunkSize puts several chunks inside one line
    /// of valid_ and accepts that sharing (the engine never learns the
    /// chunk geometry; fixing sub-line chunks would need a chunk-major
    /// table layout). A one-chunk batch splits each gate's neurons over
    /// the pool instead, in blocks of whole table rows (the tables are
    /// neuron-major), so two threads can share a line only where a block
    /// boundary falls inside one. That costs speed, never correctness.
    std::size_t slotStride_ = 0;

    // Memo table, SoA over [neuron][slot]: index flat_neuron *
    // slotStride_ + slot. Distinct slots belong to distinct sequences,
    // so concurrent chunks touch disjoint entries.
    CacheAlignedVector<float> cachedOutput_;     ///< y_m
    CacheAlignedVector<std::int32_t> cachedBnn_; ///< yb_m
    CacheAlignedVector<std::int64_t> deltaRaw_;  ///< delta_b (Q16 raw)
    CacheAlignedVector<std::uint8_t> valid_;

    // Per-slot reuse threshold, in Q16 for the BNN decision and as a
    // double for the Oracle and slotTheta(): index slot.
    CacheAlignedVector<std::int64_t> slotThetaRaw_;
    CacheAlignedVector<double> slotThetaFp_;

    // Per-gate-instance, per-slot counters: index gate * slotStride_ +
    // slot.
    CacheAlignedVector<std::uint64_t> slotReused_;
    CacheAlignedVector<std::uint64_t> slotTotal_;

    std::vector<SequenceTrace> traces_;
};

/// The one-sequence engine behind RnnNetwork::forward: a BatchMemoEngine
/// of one slot whose stats() and traces() add up over forward calls
/// until resetStats(). Every call starts the slot cold (the scheme
/// operates per input sequence) and, with recordTrace, appends that
/// sequence's trace.
class MemoEngine : public BatchMemoEngine
{
  public:
    using BatchMemoEngine::BatchMemoEngine;

    /// Cold-start the slot for the next sequence, keeping the counters
    /// and earlier traces; @p total_sequences must be 1.
    void beginBatch(std::size_t total_sequences) override;

    /// Zero the reuse counters and drop every trace.
    void resetStats() { clearStats(); }
};

} // namespace nlfm::memo

#endif // NLFM_MEMO_MEMO_BATCH_HH
