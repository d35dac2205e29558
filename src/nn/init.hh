/**
 * @file
 * Weight initialization.
 *
 * The paper evaluates *pretrained* networks. Offline we cannot load the
 * authors' TensorFlow checkpoints, so the model zoo instantiates weights
 * at trained-network scale: zero-mean Gaussians with 1/sqrt(fan_in)
 * standard deviation (the regime trained RNN weights occupy), forget-gate
 * bias of +1 (standard LSTM practice, keeps early cell states alive), and
 * small peephole weights. DESIGN.md §3 records this substitution.
 */

#ifndef NLFM_NN_INIT_HH
#define NLFM_NN_INIT_HH

#include "common/rng.hh"
#include "nn/cell_descriptor.hh"
#include "nn/rnn_network.hh"

namespace nlfm::nn
{

/** Initialization recipe. */
struct InitOptions
{
    /** Multiplier on the 1/sqrt(fan_in) weight scale. */
    double gain = 1.0;
    /**
     * Bias of the descriptor's biasBoost gate (LSTM forget gate, BRC
     * update gate); ignored by families without one (GRU, rate RNN).
     */
    double forgetBias = 1.0;
    /** Stddev of peephole weights. */
    double peepholeScale = 0.1;
    /**
     * Dispersion of weight magnitudes in [0, 1]: w = sign * scale *
     * ((1 - d) + d * |normal|). 1 recovers a plain Gaussian; smaller
     * values concentrate |w| (heavier sign dominance). The paper's
     * trained networks exhibit per-neuron BNN/RNN correlations above
     * 0.8 (Fig. 8), which requires the dot product's information to
     * live mostly in the signs; plain Gaussian magnitudes cap the
     * correlation near sqrt(2/pi) ~= 0.8 under ideal conditions, so the
     * zoo lowers the dispersion to land in the paper's measured regime
     * (see DESIGN.md §3).
     */
    double magnitudeDispersion = 1.0;
};

/**
 * Initialize one gate in place. @p aux says what the gate's auxiliary
 * vector means: Peephole (and None, where the vector is empty) draws it
 * from @p rng; Leak preserves the cell-constructor values (per-neuron
 * time constants are structure, not trainable weights).
 */
void initGate(GateParams &params, Rng &rng, const InitOptions &options,
              GateAux aux = GateAux::Peephole);

/**
 * Initialize every gate of the network; deterministic given the seed of
 * @p rng (each gate uses a forked stream so topology changes do not
 * perturb sibling gates).
 *
 * The streams are forked from @p rng on the calling thread in instance
 * order, so every weight, bias and peephole, and the state @p rng is
 * left in, are the same for any pool size. The gates are then filled
 * concurrently on ThreadPool::global(), each thread claiming the next
 * unfilled gate. Pool contract, as for RnnNetwork::forwardBatch's
 * default pool: a call must not run inside a job of
 * ThreadPool::global(), nor concurrently with another run on it;
 * ThreadPool::run asserts against both.
 */
void initNetwork(RnnNetwork &network, Rng &rng,
                 const InitOptions &options = {});

} // namespace nlfm::nn

#endif // NLFM_NN_INIT_HH
