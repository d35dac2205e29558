/**
 * @file
 * Descriptor-driven registry of recurrent cell families.
 *
 * Everything structural a layer needs to know about a cell family —
 * gate count and names, which auxiliary per-neuron vector each gate
 * carries, which gate gets the long-memory bias boost at init, the
 * named recurrent-state slots, how to construct the cell, and which
 * BPTT kernel trains it — lives in one CellDescriptor per CellType.
 * The nn/memo/serve layers consult the descriptor instead of testing
 * `cellType == CellType::Lstm`, so adding a cell family means adding
 * one descriptor entry plus the cell itself (see docs/CELLS.md).
 */

#ifndef NLFM_NN_CELL_DESCRIPTOR_HH
#define NLFM_NN_CELL_DESCRIPTOR_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "nn/rnn_config.hh"

namespace nlfm::nn
{

class RnnCell;

namespace train
{
class CellBpttKernel;
}

/**
 * What a gate's per-neuron auxiliary vector (GateParams::peephole
 * storage) means, and therefore how initNetwork must treat it.
 */
enum class GateAux
{
    None,     ///< no auxiliary vector (vector empty)
    Peephole, ///< LSTM peephole weight: rng-initialized by initGate
    Leak,     ///< per-neuron time constant: set by the cell ctor,
              ///< must NOT be overwritten by initGate's rng draw
};

/** Static description of one gate of a cell family. */
struct GateSpec
{
    const char *name; ///< short name used in reports/traces
    GateAux aux = GateAux::None;
    /**
     * True for the gate whose bias is initialized to
     * InitOptions::forgetBias (LSTM forget gate, BRC update gate) so
     * fresh networks start in a remember-by-default regime.
     */
    bool biasBoost = false;
};

/** Static description of one recurrent cell family. */
struct CellDescriptor
{
    CellType type;
    const char *name;    ///< display name, e.g. "LSTM"
    const char *cliName; ///< lower-case name for --cell flags
    std::span<const GateSpec> gates;
    /**
     * Named recurrent-state slots. Slot 0 is always the hidden/output
     * panel (BatchCellState::h); the rest map 1:1 onto
     * BatchCellState::extra (LSTM: {"h", "c"}; GRU/BRC: {"h"}; rate
     * RNN: {"r"}).
     */
    std::span<const char *const> stateSlots;
    /** Construct a cell of this family for one layer/direction. */
    std::unique_ptr<RnnCell> (*makeCell)(std::size_t x_size,
                                         const RnnConfig &config);
    /** BPTT kernel for BpttTrainer (never null; all families train). */
    const train::CellBpttKernel &(*bpttKernel)();

    /** Number of state slots beyond h (BatchCellState::extra size). */
    std::size_t
    extraStateSlots() const
    {
        return stateSlots.size() - 1;
    }
};

/** Registry lookup; panics on an out-of-range enum value. */
const CellDescriptor &cellDescriptor(CellType type);

/** Display name of a cell family ("LSTM", "RateRNN", ...). */
const char *cellTypeName(CellType type);

/** True when @p raw is the integer value of a registered CellType. */
bool isKnownCellType(std::uint32_t raw);

/** Comma-separated CLI names of every registered family. */
std::string knownCellNames();

/**
 * Parse a --cell flag value (case-sensitive cliName, e.g. "raternn");
 * fatal with the known-name list on anything else.
 */
CellType cellTypeByName(const std::string &name);

} // namespace nlfm::nn

#endif // NLFM_NN_CELL_DESCRIPTOR_HH
