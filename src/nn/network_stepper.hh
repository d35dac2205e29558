/// @file
/// Step-level batched network driver for continuous batching.
///
/// RnnNetwork::forwardBatch runs a *closed* batch: every sequence starts
/// at step 0 together and the whole stack is traversed layer-major over
/// the full sequences. A serving loop cannot do that — it needs to admit
/// a new sequence into a free slot while its neighbors are mid-sequence.
/// NetworkStepper turns the traversal step-major: it owns one persistent
/// BatchCellState per layer, sized to a fixed-width slot pool, and
/// advances an arbitrary (ragged) subset of slots one timestep through
/// the whole stack per call. Per-slot recurrent state and per-slot memo
/// state (slot-keyed in BatchMemoEngine) both survive between calls, so
/// sequences of different lengths and admission times coexist in one
/// panel.
///
/// Bitwise identity: a slot stepped length(s) times from resetSlot
/// produces, step for step, exactly the outputs forward()/forwardBatch()
/// produce for that sequence alone — the evaluator contract guarantees
/// per-row results never depend on which other rows share the panel, and
/// the per-row state updates here are the same expressions stepBatch
/// applies in the closed-batch path.
///
/// Step-major traversal requires causality per step, so bidirectional
/// networks (whose backward cells consume the future) are rejected.

#ifndef NLFM_NN_NETWORK_STEPPER_HH
#define NLFM_NN_NETWORK_STEPPER_HH

#include "nn/rnn_network.hh"

namespace nlfm::nn
{

/// Snapshot of one slot's recurrent state across every layer: every
/// descriptor state slot's row of each BatchCellState. The portable
/// carrier of the serving tier's session warm-start
/// (serve::SessionStore) — a slot restored from a snapshot continues
/// stepping exactly where the exporting slot left off, regardless of
/// which slot index either side used. The shape follows the cell's
/// descriptor, so the serve layer carries it opaquely for any family.
struct SlotCellState
{
    /// h[layer]: hidden row of that layer (hiddenSize floats).
    std::vector<std::vector<float>> h;
    /// extra[layer][i]: descriptor state slot i+1 of that layer (LSTM:
    /// extra[layer][0] = cell row; empty for single-slot families).
    std::vector<std::vector<std::vector<float>>> extra;

    bool empty() const { return h.empty(); }
};

/// Persistent slot-pool stepping of a unidirectional stack.
class NetworkStepper
{
  public:
    /// @param network unidirectional stack (asserted); must outlive the
    ///                stepper
    /// @param slots   slot-pool width of every panel
    NetworkStepper(RnnNetwork &network, std::size_t slots);

    NetworkStepper(const NetworkStepper &) = delete;
    NetworkStepper &operator=(const NetworkStepper &) = delete;

    /// Zero the recurrent state (every descriptor state slot) of one
    /// slot in every layer — the admission step. The memo engine's
    /// state for the slot is reset separately
    /// (BatchMemoEngine::admitSlot).
    void resetSlot(std::size_t slot);

    /// Copy one slot's recurrent state (every state slot of every
    /// layer) out of the panels — the completion-side half of session
    /// warm-start. @p out is resized; safe to reuse across calls.
    void exportSlot(std::size_t slot, SlotCellState &out) const;

    /// Overwrite one slot's recurrent state from a snapshot taken by
    /// exportSlot on a stepper of the SAME network (layer count and row
    /// widths are asserted). The admission-side half of warm-start:
    /// call after resetSlot, before the slot's first step().
    void restoreSlot(std::size_t slot, const SlotCellState &state);

    /// Input panel [slots x inputSize]: write each active slot's current
    /// input frame into its row before calling step().
    tensor::Matrix &inputPanel() { return input_; }

    /// Advance every slot in @p rows (ascending) one timestep through
    /// all layers. Rows not listed keep their state untouched.
    ///
    /// Thread-safety: concurrent calls are allowed iff their row sets
    /// are disjoint (the serving driver splits the active set into slot
    /// chunks) — each row's state lives in its own panel rows, and the
    /// slot-keyed evaluator keeps per-slot entries disjoint by contract.
    void step(std::span<const std::size_t> rows, BatchGateEvaluator &eval);

    /// Top-layer hidden row of @p slot: the network output emitted by the
    /// slot's most recent step().
    std::span<const float> output(std::size_t slot) const;

  private:
    RnnNetwork &network_;
    std::size_t slots_;
    tensor::Matrix input_;
    // One persistent state per layer (direction 0; unidirectional only).
    std::vector<BatchCellState> states_;
};

} // namespace nlfm::nn

#endif // NLFM_NN_NETWORK_STEPPER_HH
