/**
 * @file
 * Activation functions used by the LSTM/GRU gates (paper Fig. 4: sigma and
 * phi) plus their derivatives for the BPTT trainer.
 */

#ifndef NLFM_NN_ACTIVATIONS_HH
#define NLFM_NN_ACTIVATIONS_HH

#include <cmath>
#include <span>

namespace nlfm::nn
{

/** Logistic sigmoid. */
inline float
sigmoid(float x)
{
    return 1.f / (1.f + std::exp(-x));
}

/** Hyperbolic tangent (phi in the paper's equations). */
inline float
tanhAct(float x)
{
    return std::tanh(x);
}

/** d sigmoid(x)/dx expressed via the activation value s = sigmoid(x). */
inline float
sigmoidGradFromOutput(float s)
{
    return s * (1.f - s);
}

/** d tanh(x)/dx expressed via the activation value y = tanh(x). */
inline float
tanhGradFromOutput(float y)
{
    return 1.f - y * y;
}

/** out = softmax(values) (numerically stable). */
void softmax(std::span<const float> values, std::span<float> out);

} // namespace nlfm::nn

#endif // NLFM_NN_ACTIVATIONS_HH
