/**
 * @file
 * E-PUR / E-PUR+BM simulator: combines the timing model with event-based
 * energy accounting over a workload's reuse traces (paper §4).
 */

#ifndef NLFM_EPUR_SIMULATOR_HH
#define NLFM_EPUR_SIMULATOR_HH

#include "epur/energy_model.hh"
#include "epur/timing_model.hh"

namespace nlfm::epur
{

/** Complete outcome of one simulated run. */
struct SimResult
{
    TimingResult timing;
    EnergyEvents events;
    EnergyBreakdown energy;
};

/**
 * Accelerator simulator.
 *
 * simulateBaseline charges the unmodified E-PUR datapath: every neuron
 * streams its weights and inputs and occupies the DPU. simulateMemoized
 * replays a memoization trace on E-PUR+BM: every neuron pays the FMU
 * probe (sign-buffer read, binarized input read, BDPU pass, CMP ops,
 * memoization-buffer access); only misses stream the FP16 weight
 * magnitudes and occupy the DPU. The MU (bias, peephole, activation)
 * and the once-per-sequence DRAM weight load run in both (paper §5:
 * "energy consumption due to accessing main memory is not affected").
 */
class Simulator
{
  public:
    Simulator(const EpurConfig &config, const EnergyParams &params);

    const EpurConfig &config() const { return timing_.config(); }

    /** Unmodified E-PUR over sequences of the given lengths. */
    SimResult simulateBaseline(
        const nn::RnnNetwork &network,
        std::span<const std::size_t> sequence_steps) const;

    /** E-PUR+BM over recorded reuse traces. */
    SimResult simulateMemoized(
        const nn::RnnNetwork &network,
        std::span<const memo::SequenceTrace> traces) const;

    /** baseline time / memoized time. */
    static double speedup(const SimResult &baseline,
                          const SimResult &memoized);

    /** 1 - memoized energy / baseline energy. */
    static double energySavings(const SimResult &baseline,
                                const SimResult &memoized);

  private:
    /** Events common to both datapaths (MU, intermediate memory, DRAM). */
    void addSharedEvents(const nn::RnnNetwork &network,
                         double total_steps, double sequences,
                         EnergyEvents &events) const;

    TimingModel timing_;
    EnergyParams params_;
};

/** MU scalar operations charged per neuron per timestep. */
constexpr double mu_ops_per_neuron = 4.0;

/** CMP fixed-point micro-ops charged per FMU probe. */
constexpr double cmp_ops_per_probe = 4.0;

} // namespace nlfm::epur

#endif // NLFM_EPUR_SIMULATOR_HH
