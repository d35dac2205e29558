/**
 * @file
 * Gate parameters and gate-instance identity.
 *
 * A "gate" is one single-layer fully-connected network inside a cell
 * (paper §2.1.2). Every neuron evaluation in the whole network flows
 * through a BatchGateEvaluator (nn/batch_evaluator.hh), the seam where
 * the fuzzy memoization engine (src/memo) intercepts computation; the
 * plain DirectBatchEvaluator reproduces the unmodified network.
 */

#ifndef NLFM_NN_GATE_HH
#define NLFM_NN_GATE_HH

#include <cstddef>
#include <vector>

#include "nn/rnn_config.hh"
#include "tensor/matrix.hh"

namespace nlfm::nn
{

/**
 * Weights of one gate: forward connections (Wx), recurrent connections
 * (Wh), bias, and an optional peephole vector (LSTM only).
 *
 * Row n of each matrix is neuron n's weight vector — the unit the
 * memoization scheme skips or evaluates.
 */
struct GateParams
{
    tensor::Matrix wx;            ///< [neurons x xSize]
    tensor::Matrix wh;            ///< [neurons x hSize]
    std::vector<float> bias;      ///< [neurons]
    std::vector<float> peephole;  ///< [neurons] or empty

    std::size_t neurons() const { return wx.rows(); }
    std::size_t xSize() const { return wx.cols(); }
    std::size_t hSize() const { return wh.cols(); }
};

/**
 * Identity of one gate instance within a deep network.
 *
 * instanceId is dense across the network; neuronBase gives each neuron in
 * the network a flat global index (neuronBase + n), which the memoization
 * table uses as its key. cellId groups the gates that E-PUR runs
 * concurrently on its four computation units.
 */
struct GateInstance
{
    std::size_t instanceId = 0;
    std::size_t layer = 0;
    std::size_t direction = 0; ///< 0 forward, 1 backward
    std::size_t cellId = 0;
    std::size_t gate = 0;      ///< index within the cell
    std::size_t neurons = 0;
    std::size_t xSize = 0;
    std::size_t hSize = 0;
    std::size_t neuronBase = 0;
};

} // namespace nlfm::nn

#endif // NLFM_NN_GATE_HH
