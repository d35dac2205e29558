#include "nn/network_stepper.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nlfm::nn
{

NetworkStepper::NetworkStepper(RnnNetwork &network, std::size_t slots)
    : network_(network), slots_(slots),
      input_(slots, network.config().inputSize)
{
    nlfm_assert(slots > 0, "empty slot pool");
    nlfm_assert(!network.config().bidirectional,
                "step-major traversal needs causal cells; bidirectional "
                "stacks cannot be served step by step");
    states_.reserve(network_.layerCount());
    for (std::size_t l = 0; l < network_.layerCount(); ++l)
        states_.push_back(network_.layer(l).cell(0).makeBatchState(slots));
}

void
NetworkStepper::resetSlot(std::size_t slot)
{
    nlfm_assert(slot < slots_, "resetSlot: slot out of range");
    for (auto &state : states_) {
        const auto h_row = state.h.row(slot);
        std::fill(h_row.begin(), h_row.end(), 0.f);
        for (auto &panel : state.extra) {
            const auto row = panel.row(slot);
            std::fill(row.begin(), row.end(), 0.f);
        }
    }
}

void
NetworkStepper::exportSlot(std::size_t slot, SlotCellState &out) const
{
    nlfm_assert(slot < slots_, "exportSlot: slot out of range");
    out.h.resize(states_.size());
    out.extra.resize(states_.size());
    for (std::size_t l = 0; l < states_.size(); ++l) {
        const auto h_row = states_[l].h.row(slot);
        out.h[l].assign(h_row.begin(), h_row.end());
        out.extra[l].resize(states_[l].extra.size());
        for (std::size_t i = 0; i < states_[l].extra.size(); ++i) {
            const auto row = states_[l].extra[i].row(slot);
            out.extra[l][i].assign(row.begin(), row.end());
        }
    }
}

void
NetworkStepper::restoreSlot(std::size_t slot, const SlotCellState &state)
{
    nlfm_assert(slot < slots_, "restoreSlot: slot out of range");
    nlfm_assert(state.h.size() == states_.size() &&
                    state.extra.size() == states_.size(),
                "restoreSlot: snapshot layer count mismatch (session "
                "state from a different network?)");
    for (std::size_t l = 0; l < states_.size(); ++l) {
        const auto h_row = states_[l].h.row(slot);
        nlfm_assert(state.h[l].size() == h_row.size(),
                    "restoreSlot: hidden width mismatch at layer ", l);
        std::copy(state.h[l].begin(), state.h[l].end(), h_row.begin());
        nlfm_assert(state.extra[l].size() == states_[l].extra.size(),
                    "restoreSlot: state-slot count mismatch at layer ",
                    l);
        for (std::size_t i = 0; i < states_[l].extra.size(); ++i) {
            const auto row = states_[l].extra[i].row(slot);
            nlfm_assert(state.extra[l][i].size() == row.size(),
                        "restoreSlot: state-slot width mismatch at "
                        "layer ", l);
            std::copy(state.extra[l][i].begin(), state.extra[l][i].end(),
                      row.begin());
        }
    }
}

void
NetworkStepper::step(std::span<const std::size_t> rows,
                     BatchGateEvaluator &eval)
{
    if (rows.empty())
        return;
    nlfm_assert(rows.back() < slots_, "step: row out of range");
    // Layer l reads layer l-1's hidden panel *after* this step — within
    // one call the stack advances top to bottom in dependency order, so
    // slot s sees exactly the per-step data flow of a closed batch.
    const tensor::Matrix *x = &input_;
    for (std::size_t l = 0; l < network_.layerCount(); ++l) {
        network_.layer(l).cell(0).stepBatch(*x, rows, /*slot_base=*/0,
                                            states_[l], eval);
        x = &states_[l].h;
    }
}

std::span<const float>
NetworkStepper::output(std::size_t slot) const
{
    nlfm_assert(slot < slots_, "output: slot out of range");
    return states_.back().h.row(slot);
}

} // namespace nlfm::nn
