/**
 * @file
 * Binarized (BNN) mirror of a recurrent network (paper §3.2, Fig. 9).
 *
 * Every gate of the full-precision network is mirrored into a binarized
 * gate whose weight row for neuron n is sign([Wx[n] ; Wh[n]]) packed one
 * bit per weight — the image of E-PUR's "sign buffer". At each timestep
 * the FMU binarizes the concatenated input [x_t ; h_{t-1}] once per gate
 * and produces, per neuron, the integer XNOR/popcount dot product
 * yb_t (Eq. 8) that the memoization predictor compares against its
 * cached yb_m.
 */

#ifndef NLFM_NN_BINARIZED_HH
#define NLFM_NN_BINARIZED_HH

#include <vector>

#include "nn/rnn_network.hh"
#include "tensor/bitpack.hh"

namespace nlfm::nn
{

/**
 * Sign-binarized image of one gate.
 */
class BinarizedGate
{
  public:
    /** Pack sign([wx | wh]) row by row from the gate parameters. */
    explicit BinarizedGate(const GateParams &params);

    std::size_t neurons() const { return weights_.rows(); }
    std::size_t inputBits() const { return weights_.cols(); }

    /** Re-pack after the float weights changed (e.g. after training). */
    void refresh(const GateParams &params);

    /**
     * The packed sign rows; tensor::bnnDotPanel evaluates them against
     * binarized inputs (BitVector::assignConcat of x, h).
     */
    const tensor::BitMatrix &weights() const { return weights_; }

  private:
    tensor::BitMatrix weights_;
};

/**
 * The binarized inputs of one gate call: [x ; h] of each live row, the
 * input panel that tensor::bnnDotPanel evaluates a BinarizedGate's
 * weights against. The buffers persist between calls, so a caller that
 * keeps one per thread allocates only when the row count grows or the
 * gate width changes.
 */
class BinarizedInputs
{
  public:
    /**
     * Binarize [x.row(r) ; h.row(r)] for each r in @p rows, at the
     * width of @p gate.
     *
     * @return one packed word array per row, valid until the next call
     */
    std::span<const std::uint64_t *const>
    assign(const BinarizedGate &gate, const tensor::Matrix &x,
           const tensor::Matrix &h, std::span<const std::size_t> rows);

  private:
    std::vector<tensor::BitVector> inputs_;
    std::vector<const std::uint64_t *> words_;
};

/**
 * BNN mirror of a whole RnnNetwork, indexed by gate instanceId.
 */
class BinarizedNetwork
{
  public:
    explicit BinarizedNetwork(const RnnNetwork &network);

    std::size_t gateCount() const { return gates_.size(); }

    BinarizedGate &gate(std::size_t instance_id);
    const BinarizedGate &gate(std::size_t instance_id) const;

    /** Re-pack every gate from the (possibly retrained) float network. */
    void refresh(const RnnNetwork &network);

  private:
    std::vector<BinarizedGate> gates_;
};

} // namespace nlfm::nn

#endif // NLFM_NN_BINARIZED_HH
