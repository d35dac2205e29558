#include "nn/activations.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nlfm::nn
{

void
softmax(std::span<const float> values, std::span<float> out)
{
    nlfm_assert(values.size() == out.size() && !values.empty(),
                "softmax: bad sizes");
    const float peak = *std::max_element(values.begin(), values.end());
    double total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        out[i] = std::exp(values[i] - peak);
        total += out[i];
    }
    const auto inv = static_cast<float>(1.0 / total);
    for (auto &value : out)
        value *= inv;
}

} // namespace nlfm::nn
