/**
 * @file
 * Deep RNN: a stack of (optionally bidirectional) recurrent layers with a
 * network-wide enumeration of gate instances and flat neuron indices.
 */

#ifndef NLFM_NN_RNN_NETWORK_HH
#define NLFM_NN_RNN_NETWORK_HH

#include <span>
#include <vector>

#include "nn/rnn_layer.hh"

namespace nlfm
{
class ThreadPool;
}

namespace nlfm::nn
{

/**
 * Scheduling knobs of the batched forward path.
 *
 * The batch is split into fixed-size chunks of consecutive sequences;
 * each chunk runs the whole stack with panel kernels. Chunk boundaries
 * depend only on chunkSize — never on worker count — so results and
 * statistics are reproducible for any pool size. The chunk count and
 * the pool size pick the schedule (RnnNetwork::forwardBatch).
 */
struct BatchForwardOptions
{
    /** Pool to schedule work on; null means ThreadPool::global(). */
    ThreadPool *pool = nullptr;
    /**
     * Sequences per chunk. Weight reads amortize across a chunk, and
     * the default is a cache line of the batch memo table's smallest
     * element (valid_, 1 byte): combined with the table's cache-line-
     * padded slot stride, concurrent chunk workers never write the same
     * line of memo state. A batch of one chunk (at the default, up to
     * 64 sequences) splits each phase of a cell step by neurons over
     * the pool instead, so it still uses every thread without putting
     * two chunks on one valid_ line. Outputs are identical for every
     * chunk size.
     */
    std::size_t chunkSize = 64;
    /**
     * Use the thread pool; false runs every chunk, and every gate call,
     * on the calling thread (debugging / baselines), with identical
     * results either way.
     */
    bool threaded = true;
};

/**
 * Stacked deep RNN (paper §2.1.1).
 *
 * Construction enumerates every gate in the network into a flat
 * GateInstance table; instanceId indexes that table and
 * neuronBase + n gives every neuron a global index. Both are the keys
 * used by the memoization engine and the accelerator model.
 */
class RnnNetwork
{
  public:
    explicit RnnNetwork(const RnnConfig &config);

    RnnNetwork(const RnnNetwork &) = delete;
    RnnNetwork &operator=(const RnnNetwork &) = delete;

    const RnnConfig &config() const { return config_; }

    std::size_t layerCount() const { return layers_.size(); }
    RnnLayer &layer(std::size_t index);
    const RnnLayer &layer(std::size_t index) const;

    /** All gate instances, indexed by GateInstance::instanceId. */
    const std::vector<GateInstance> &gateInstances() const
    {
        return instances_;
    }

    /** Parameters of the gate identified by @p instance_id. */
    const GateParams &gateParams(std::size_t instance_id) const;
    GateParams &gateParams(std::size_t instance_id);

    /** Total number of neurons across all gate instances. */
    std::size_t totalNeurons() const { return totalNeurons_; }

    /**
     * Run one sequence through the stack: forwardBatch of that sequence
     * alone, with the default BatchForwardOptions. Returns the top
     * layer's per-timestep outputs (width config().outputSize()).
     *
     * Calls eval.beginBatch(1) first, so a memoizing evaluator starts
     * from a cold table for each sequence.
     */
    Sequence forward(const Sequence &inputs, BatchGateEvaluator &eval);

    /** Convenience: forward with the exact full-precision evaluator. */
    Sequence forwardBaseline(const Sequence &inputs);

    /**
     * Run many sequences through the stack with panel kernels on the
     * thread pool.
     *
     * Calls eval.beginBatch(inputs.size()) once, then evaluates every
     * chunk through the batched seam. Output i is bitwise identical to
     * a batch of inputs[i] alone (forward) for every chunk size, worker
     * count, and batch composition, as long as eval keys its state by
     * slot.
     *
     * Schedule: with two or more chunks, the chunks run in parallel on
     * the pool. A one-chunk batch runs on the calling thread, and each
     * phase of a cell step (a group of gate calls plus the loop that
     * consumes them) may split its neurons over the pool as one job
     * (BatchGateEvaluator::evaluatePhase). Batches of 2 to
     * threads - 1 chunks stay chunk-parallel, because the split has not
     * been measured against it there.
     *
     * Pool contract: with options.threaded and a pool of two or more
     * threads, a call takes the pool's single job slot even for a
     * one-chunk batch (a phase whose gate calls have two or more
     * kNeuronBlock blocks and at least kMinSplitWork multiply-adds
     * splits). So it must not
     * run inside a job of the same pool, nor concurrently with another
     * run on it: ThreadPool::run asserts against both. Callers that are
     * themselves pool jobs pass a different pool or threaded = false.
     */
    std::vector<Sequence> forwardBatch(
        std::span<const Sequence> inputs, BatchGateEvaluator &eval,
        const BatchForwardOptions &options = {});

    /** Convenience: batched forward with the exact evaluator. */
    std::vector<Sequence> forwardBatchBaseline(
        std::span<const Sequence> inputs,
        const BatchForwardOptions &options = {});

  private:
    RnnConfig config_;
    std::vector<RnnLayer> layers_;
    std::vector<GateInstance> instances_;
    // instanceId -> (layer, direction, gate) for parameter lookup.
    struct ParamRef { std::size_t layer, direction, gate; };
    std::vector<ParamRef> paramRefs_;
    std::size_t totalNeurons_ = 0;
};

} // namespace nlfm::nn

#endif // NLFM_NN_RNN_NETWORK_HH
