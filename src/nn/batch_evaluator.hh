/**
 * @file
 * The gate-evaluator seam: the one stepping path of every network.
 *
 * An evaluator fills one gate's pre-activations for a whole panel of
 * sequences per call, so implementations can stream each neuron's
 * weight row across the panel instead of re-reading all weights per
 * sequence. A one-sequence forward (RnnNetwork::forward) is a panel of
 * one row.
 *
 * Contract: for every active row b the filled pre-activations depend
 * only on sequence b's inputs and state, so they are bitwise identical
 * to what the evaluator produces for sequence b in a panel of its own.
 * Rows not listed in @p rows (finished sequences) must be left
 * untouched.
 */

#ifndef NLFM_NN_BATCH_EVALUATOR_HH
#define NLFM_NN_BATCH_EVALUATOR_HH

#include <functional>

#include "nn/gate.hh"

namespace nlfm
{
class ThreadPool;
}

namespace nlfm::nn
{

class RnnNetwork;

/**
 * Neurons per block of the within-gate neuron split: a gate call splits
 * its neurons into runs of whole blocks. Equal to the BNN probe block
 * of memo::BatchMemoEngine, so a run never cuts a probe panel in two.
 */
inline constexpr std::size_t kNeuronBlock = 32;

/**
 * Fewest multiply-adds (neurons x input width x live slots) a gate call
 * needs before it splits its neurons over the pool. Below it, waking
 * the pool costs more than the split saves: on 4 threads, the gate
 * split alone ran one-chunk IMDB batches (128-neuron LSTM gates of
 * width 192) at 0.5-0.96x of inline speed with 1-8 sequences. 2^18 is
 * 11 of those sequences, 4 of RateRNN's (256 neurons, width 320) and
 * one of DeepSpeech2's (800 neurons, width 961). From there on, with
 * the cells' loops splitting too, the split pass ran faster than the
 * inline one, or about as fast: IMDB 1.3-1.4x at 11-20 sequences, BRC
 * 0.9-1.3x at 11-16, RateRNN 1.1x at 4, DeepSpeech2 3.2x at 1.
 */
inline constexpr std::size_t kMinSplitWork = std::size_t{1} << 18;

/**
 * Fewest neuron-slots (neurons x live slots) a cell's elementwise loop
 * needs before it splits with the gate calls of its step
 * (BatchGateEvaluator::forEachCellRange). A loop evaluates one to five
 * activations per neuron-slot (5 ns for sigmoid, 28 ns for tanh), and
 * one pool dispatch costs 15-40 us (bench_micro_kernels'
 * BM_Activation, BM_ThreadPoolRun). Split without this floor, one-chunk
 * passes ran at 0.95x of the gate-only split for RateRNN at 2
 * sequences (512 neuron-slots per loop) and 0.96x for DeepSpeech2 at 1
 * (800); RateRNN at 4 (1024) gains 1.16x.
 */
inline constexpr std::size_t kMinSplitElements = 1024;

/**
 * Recurrent state of one cell for a whole batch, shaped by the cell's
 * descriptor. h is state slot 0, [B x hidden] (row b = sequence slot
 * b); extra[i] is descriptor state slot i+1 (LSTM: extra[0] = cell
 * state c); preact holds one [B x hidden] scratch panel per gate;
 * scratch is the modulated-hidden panel of cells whose candidate gate
 * reads a gated recurrent operand (GRU r.h, BRC a.h). Owned per
 * evaluation chunk, so concurrent chunks never share mutable state.
 */
struct BatchCellState
{
    tensor::Matrix h;
    std::vector<tensor::Matrix> extra;
    std::vector<tensor::Matrix> preact;
    tensor::Matrix scratch;
};

/**
 * Strategy for computing one gate's pre-activations across a panel of
 * sequences.
 *
 * Two concurrency patterns, chosen by RnnNetwork::forwardBatch:
 *
 *  - chunk-parallel (two or more chunks): calls come from several
 *    worker threads concurrently, each covering a disjoint set of
 *    sequence slots; implementations keyed by slot (the batched memo
 *    engine) index their state with slot_base + local row and must
 *    keep per-slot entries disjoint.
 *  - neuron split (one chunk): calls come from one thread at a time,
 *    and an implementation may split the call's neurons over the pool
 *    that forwardBatch hands in (forEachNeuronRange). Every run of
 *    neurons writes only its own preact columns and per-neuron state;
 *    state shared by all neurons of a gate (a per-slot counter) must be
 *    accumulated per range and combined after the join. The cells'
 *    elementwise loops between and after the gate calls
 *    (RnnCell::stepBatch) split the same way, through the evaluator
 *    they are handed (forEachCellRange), each range writing only its
 *    own state columns.
 *
 * The pool is never visible to implementations that do not call
 * forEachNeuronRange: a decorator that wraps another evaluator runs it
 * inline, which is correct, just not split. Handed to forwardBatch, the
 * decorator itself holds the pool, so the cells' elementwise loops
 * split while the gate calls it wraps run inline.
 */
class BatchGateEvaluator
{
  public:
    /** body(range, begin, end) of forEachNeuronRange. */
    using NeuronRangeBody =
        std::function<void(std::size_t, std::size_t, std::size_t)>;

    virtual ~BatchGateEvaluator() = default;

    /**
     * Reset per-batch state for @p total_sequences slots; called once by
     * RnnNetwork::forwardBatch before any panel work starts.
     */
    virtual void beginBatch(std::size_t total_sequences)
    {
        (void)total_sequences;
    }

    /**
     * Fill preact(b, n) for every row b in @p rows and neuron n.
     *
     * @param x         [B x xSize] forward-input panel
     * @param h         [B x hSize] recurrent-input panel
     * @param rows      active rows (ascending, within this chunk's panel)
     * @param slot_base global sequence index of panel row 0
     * @param preact    [B x neurons] output panel
     */
    virtual void evaluateGateBatch(const GateInstance &instance,
                                   const GateParams &params,
                                   const tensor::Matrix &x,
                                   const tensor::Matrix &h,
                                   std::span<const std::size_t> rows,
                                   std::size_t slot_base,
                                   tensor::Matrix &preact) = 0;

    /**
     * forEachNeuronRange for one elementwise loop of a cell's stepBatch
     * over @p slots live rows, given one of the cell's gate instances.
     * All gates of a cell share neurons, xSize and hSize, so the loop
     * splits only when the gate calls of its step split, and then only
     * if it has at least kMinSplitElements neuron-slots. The body must
     * read and write only columns [begin, end) of its rows.
     */
    template <typename Body>
    void
    forEachCellRange(const GateInstance &instance, std::size_t slots,
                     Body &&body) const
    {
        runRanges(cellRangeCount(instance, slots), instance.neurons, body);
    }

  protected:
    /**
     * Number of ranges forEachNeuronRange spreads @p instance's neurons
     * over for a call with @p slots live slots: one per thread of the
     * neuron pool, but no more than there are kNeuronBlock blocks. 1
     * when no pool is handed in, the gate has fewer than two blocks, or
     * the call has less than kMinSplitWork multiply-adds.
     */
    std::size_t neuronRangeCount(const GateInstance &instance,
                                 std::size_t slots) const;

    /**
     * Evaluate neurons [0, instance.neurons) through calls
     * body(range, begin, end), each [begin, end) a run of whole
     * kNeuronBlock blocks, every neuron in exactly one call. A range r
     * in [0, neuronRangeCount(instance, slots)) is one thread's share:
     * its calls run one after another on that thread, so per-range
     * accumulators need no synchronization, while different ranges run
     * concurrently on the neuron pool (range 0 on the calling thread).
     * Which blocks a range gets is decided at run time and may be none;
     * anything that depends on it must be an order-independent sum.
     * Returns after all calls; with a single range, one direct inline
     * call covers every neuron (no pool, no std::function).
     */
    template <typename Body>
    void
    forEachNeuronRange(const GateInstance &instance, std::size_t slots,
                       Body &&body) const
    {
        runRanges(neuronRangeCount(instance, slots), instance.neurons,
                  body);
    }

  private:
    /**
     * neuronRangeCount for a cell loop: 1 below kMinSplitElements
     * neuron-slots.
     */
    std::size_t cellRangeCount(const GateInstance &instance,
                               std::size_t slots) const;

    /** Neurons [0, neurons) over @p ranges ranges, as forEachNeuronRange. */
    template <typename Body>
    void
    runRanges(std::size_t ranges, std::size_t neurons, Body &body) const
    {
        if (ranges == 1)
            body(std::size_t{0}, std::size_t{0}, neurons);
        else
            splitNeurons(ranges, neurons, std::ref(body));
    }

    /** runRanges with two or more ranges, on the neuron pool. */
    void splitNeurons(std::size_t ranges, std::size_t neurons,
                      const NeuronRangeBody &body) const;

    // RnnNetwork::forwardBatch sets and clears the pool around its
    // one-chunk schedule; nothing else does.
    friend class RnnNetwork;
    ThreadPool *neuronPool_ = nullptr;
};

/**
 * Baseline evaluator: exact full-precision panel products, per row
 * float(dotLanes(Wx[n], x) + dotLanes(Wh[n], h)) whatever the panel.
 */
class DirectBatchEvaluator : public BatchGateEvaluator
{
  public:
    void evaluateGateBatch(const GateInstance &instance,
                           const GateParams &params, const tensor::Matrix &x,
                           const tensor::Matrix &h,
                           std::span<const std::size_t> rows,
                           std::size_t slot_base,
                           tensor::Matrix &preact) override;
};

} // namespace nlfm::nn

#endif // NLFM_NN_BATCH_EVALUATOR_HH
