/**
 * @file
 * Multi-sequence batch container for the batched evaluation path.
 *
 * A Batch packs B variable-length sequences into per-timestep Matrix
 * panels of shape [B x width] (row b holds sequence b's feature vector at
 * that step, zero for steps past the sequence's end). Panels let gate
 * kernels stream one neuron's weight row across the whole batch, which is
 * what amortizes weight-buffer reads over B sequences, where one
 * sequence at a time re-reads every weight once per sequence.
 *
 * Sequence order is preserved: slot b in every panel is input sequence b,
 * so per-slot memoization state and reuse statistics line up with a
 * one-sequence run of that input.
 */

#ifndef NLFM_TENSOR_BATCH_HH
#define NLFM_TENSOR_BATCH_HH

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/matrix.hh"

namespace nlfm::tensor
{

/** B sequences packed into [B x width] per-timestep panels. */
class Batch
{
  public:
    Batch() = default;

    /**
     * Zero-filled batch of @p lengths.size() sequences, panel width
     * @p width, one panel per step up to max(lengths).
     */
    Batch(std::size_t width, std::span<const std::size_t> lengths);

    /**
     * Pack sequences (each a vector of per-step feature vectors). Every
     * step vector must have exactly @p width elements; @p width is
     * explicit so empty batches and zero-length sequences are
     * well-formed.
     */
    static Batch pack(
        std::span<const std::vector<std::vector<float>>> sequences,
        std::size_t width);

    /** Number of sequences B (panel rows). */
    std::size_t size() const { return lengths_.size(); }

    /** Feature width (panel columns). */
    std::size_t width() const { return width_; }

    /** Length of the longest sequence (number of panels). */
    std::size_t maxSteps() const { return panels_.size(); }

    /** Length of sequence @p b. */
    std::size_t length(std::size_t b) const { return lengths_[b]; }
    const std::vector<std::size_t> &lengths() const { return lengths_; }

    /** Panel at timestep @p t: [B x width]. */
    Matrix &panel(std::size_t t);
    const Matrix &panel(std::size_t t) const;

    /**
     * Rows still live at timestep @p t (sequences with length > t), in
     * ascending slot order.
     */
    std::span<const std::size_t> activeRows(std::size_t t) const;

    /** Copy row @p b of every panel back out, trimmed to its length. */
    std::vector<std::vector<float>> unpackSequence(std::size_t b) const;

    /** Unpack the whole batch in slot order. */
    std::vector<std::vector<std::vector<float>>> unpack() const;

  private:
    std::size_t width_ = 0;
    std::vector<std::size_t> lengths_;
    std::vector<Matrix> panels_;
    // active_[t] = sorted slots with length > t.
    std::vector<std::vector<std::size_t>> active_;
};

} // namespace nlfm::tensor

#endif // NLFM_TENSOR_BATCH_HH
