/**
 * @file
 * Scalar reference of the (memoized) RNN forward pass, for tests only.
 *
 * An independent transcription of the paper's equations that shares no
 * code with the library's stepping path or its kernels:
 *
 *  - the cells: LSTM Eqs. 1-6 (with and without peepholes), GRU, BRC
 *    and the rate RNN, one neuron at a time;
 *  - the stack: layer by layer, each bidirectional layer's backward
 *    cell consuming x_N..x_1;
 *  - the Oracle decision (Eqs. 9-11) and the BNN decision (Eqs. 12-17)
 *    with delta_b in Q16.16 (division form) or in double, with or
 *    without throttling (Eq. 13);
 *  - the per-gate reuse counts.
 *
 * It reads weights through RnnNetwork::gateParams, gateInstances and
 * config, and calls only nn::sigmoid, nn::tanhAct and Q16. Bitwise
 * agreement with the library rests on three conventions the library
 * documents:
 *
 *  - a gate pre-activation is dotLanes(Wx[n], x) + dotLanes(Wh[n], h),
 *    in the operation order of tensor::dotLanes (src/tensor/
 *    vector_ops.cc, above dotLanesBlock): eight FMA lanes over 8-float
 *    blocks, a scalar fmaf tail, and ((s0 + s2) + (s1 + s3)) + tail
 *    with s_l = lane_l + lane_{l+4};
 *  - a BNN output (Eq. 8) is the sum over [x; h] of s(w) * s(in), with
 *    s(v) = +1 if v >= 0 and -1 otherwise (Eq. 7);
 *  - a cell's multiply-adds are fused (RnnCell::stepBatch): a peephole
 *    term is fma(p, c, z), and a sum of two products a*b + c*d (Eq. 4,
 *    the state blends) is fma(a, b, c*d).
 */

#ifndef NLFM_TESTS_REFERENCE_SCALAR_REFERENCE_HH
#define NLFM_TESTS_REFERENCE_SCALAR_REFERENCE_HH

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

#include "common/fixed_point.hh"
#include "nn/activations.hh"
#include "nn/rnn_network.hh"

namespace nlfm::reference
{

/** How the reference evaluates each neuron. */
enum class Predictor
{
    Exact,  ///< every neuron evaluated, no memo table
    Oracle, ///< Eqs. 9-11
    Bnn,    ///< Eqs. 12-17
};

/** Reference configuration, mirroring memo::MemoOptions. */
struct ReferenceOptions
{
    Predictor predictor = Predictor::Exact;
    double theta = 0.0;
    /** Accumulate eps_b over consecutive reuses (Eq. 13). */
    bool throttle = true;
    /** delta_b in Q16.16 (true) or double (false). */
    bool fixedPoint = true;
};

/** w . x in tensor::dotLanes' operation order. */
inline float
laneDot(std::span<const float> w, std::span<const float> x)
{
    float lane[8] = {};
    float tail = 0.f;
    std::size_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
    for (; i + 8 <= w.size(); i += 8)
        for (std::size_t l = 0; l < 8; ++l)
            lane[l] = std::fmaf(w[i + l], x[i + l], lane[l]);
    for (; i < w.size(); ++i)
        tail = std::fmaf(w[i], x[i], tail);
#else
    // Builds without AVX2+FMA run dotLanes' portable form, which rounds
    // each product before adding it.
    for (; i + 8 <= w.size(); i += 8)
        for (std::size_t l = 0; l < 8; ++l) {
            const float product = w[i + l] * x[i + l];
            lane[l] += product;
        }
    for (; i < w.size(); ++i) {
        const float product = w[i] * x[i];
        tail += product;
    }
#endif
    const float s0 = lane[0] + lane[4];
    const float s1 = lane[1] + lane[5];
    const float s2 = lane[2] + lane[6];
    const float s3 = lane[3] + lane[7];
    return ((s0 + s2) + (s1 + s3)) + tail;
}

/** Eq. 7: +1 for v >= 0, -1 otherwise. */
inline int
signOf(float v)
{
    return v >= 0.f ? 1 : -1;
}

/** Eq. 8: the binarized neuron, sum of s(w) s(in) over [x; h]. */
inline std::int32_t
signDot(std::span<const float> wx, std::span<const float> wh,
        std::span<const float> x, std::span<const float> h)
{
    std::int32_t sum = 0;
    for (std::size_t i = 0; i < wx.size(); ++i)
        sum += signOf(wx[i]) * signOf(x[i]);
    for (std::size_t i = 0; i < wh.size(); ++i)
        sum += signOf(wh[i]) * signOf(h[i]);
    return sum;
}

/** |a - b| / |a|; 0 when both are zero, infinite when only a is. */
inline double
relativeChange(double a, double b)
{
    if (a == 0.0)
        return b == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    return std::fabs(a - b) / std::fabs(a);
}

/**
 * The reference network evaluator. Each forward() call is one sequence
 * from a cold memo table; the per-gate counts add up over calls.
 */
class ScalarReference
{
  public:
    ScalarReference(const nn::RnnNetwork &network,
                    const ReferenceOptions &options)
        : network_(network), config_(network.config()), options_(options),
          thetaRaw_(Q16::fromDouble(options.theta).raw()),
          table_(network.totalNeurons()),
          reused_(network.gateInstances().size(), 0),
          total_(network.gateInstances().size(), 0)
    {
        const std::size_t gates = nn::gateCount(config_.cellType);
        ids_.assign(config_.layers * config_.directions() * gates, 0);
        for (const nn::GateInstance &instance : network.gateInstances())
            ids_[(instance.layer * config_.directions() +
                  instance.direction) *
                     gates +
                 instance.gate] = instance.instanceId;
    }

    /** Top-layer outputs of one sequence. */
    nn::Sequence
    forward(const nn::Sequence &inputs)
    {
        for (Entry &entry : table_)
            entry = Entry{};
        const std::size_t steps = inputs.size();
        const std::size_t hidden = config_.hiddenSize;
        nn::Sequence current = inputs;
        for (std::size_t layer = 0; layer < config_.layers; ++layer) {
            nn::Sequence next(steps,
                              std::vector<float>(config_.outputSize(), 0.f));
            for (std::size_t dir = 0; dir < config_.directions(); ++dir) {
                State state{std::vector<float>(hidden, 0.f),
                            std::vector<float>(hidden, 0.f)};
                for (std::size_t k = 0; k < steps; ++k) {
                    const std::size_t t = dir == 0 ? k : steps - 1 - k;
                    step(layer, dir, current[t], state);
                    for (std::size_t n = 0; n < hidden; ++n)
                        next[t][dir * hidden + n] = state.h[n];
                }
            }
            current = std::move(next);
        }
        return current;
    }

    /** Reused neuron evaluations of gate instance @p id. */
    std::uint64_t reused(std::size_t id) const { return reused_[id]; }

    /** Neuron evaluations of gate instance @p id (neurons x steps). */
    std::uint64_t total(std::size_t id) const { return total_[id]; }

  private:
    /** One memo entry: y_m, yb_m, delta_b and the valid bit. */
    struct Entry
    {
        float y = 0.f;
        std::int32_t yb = 0;
        std::int64_t deltaQ16 = 0;
        double delta = 0.0;
        bool valid = false;
    };

    /** A cell's recurrent state: h and (LSTM only) c. */
    struct State
    {
        std::vector<float> h;
        std::vector<float> c;
    };

    /**
     * Eqs. 12-14 for a valid entry: true to reuse, in which case the
     * accumulated delta_b is stored.
     */
    bool
    bnnReuses(Entry &entry, std::int32_t yb_t) const
    {
        // Eq. 12 is undefined at yb_t = 0; only an unchanged output
        // (yb_m = 0 too) counts as eps_b = 0 there.
        if (yb_t == 0 && entry.yb != 0)
            return false;
        if (options_.fixedPoint) {
            const std::int64_t eps =
                yb_t == 0
                    ? 0
                    : (std::abs(std::int64_t{yb_t} - entry.yb) << 16) /
                          std::abs(std::int64_t{yb_t});
            const std::int64_t delta =
                (options_.throttle ? entry.deltaQ16 : 0) + eps; // Eq. 13
            if (delta > thetaRaw_)                              // Eq. 14
                return false;
            entry.deltaQ16 = delta;
            return true;
        }
        const double eps = relativeChange(yb_t, entry.yb);
        const double delta = (options_.throttle ? entry.delta : 0.0) + eps;
        if (delta > options_.theta)
            return false;
        entry.delta = delta;
        return true;
    }

    /** Pre-activations of gate @p gate of (layer, dir) for (x, h). */
    std::vector<float>
    gate(std::size_t layer, std::size_t dir, std::size_t gate,
         std::span<const float> x, std::span<const float> h)
    {
        const std::size_t id =
            ids_[(layer * config_.directions() + dir) *
                     nn::gateCount(config_.cellType) +
                 gate];
        const nn::GateInstance &instance = network_.gateInstances()[id];
        const nn::GateParams &params = network_.gateParams(id);
        std::vector<float> out(instance.neurons);
        for (std::size_t n = 0; n < instance.neurons; ++n) {
            const float y_t = laneDot(params.wx.row(n), x) +
                              laneDot(params.wh.row(n), h);
            Entry &entry = table_[instance.neuronBase + n];
            bool reuse = false;
            std::int32_t yb_t = 0;
            if (options_.predictor == Predictor::Oracle) {
                reuse = entry.valid &&
                        relativeChange(y_t, entry.y) <= options_.theta;
            } else if (options_.predictor == Predictor::Bnn) {
                yb_t = signDot(params.wx.row(n), params.wh.row(n), x, h);
                reuse = entry.valid && bnnReuses(entry, yb_t);
            }
            if (reuse) {
                // Eqs. 10 and 14: emit y_m, keep the entry.
                out[n] = entry.y;
                ++reused_[id];
            } else {
                // Eqs. 11 and 15-17: emit y_t, refresh the entry.
                out[n] = y_t;
                entry = Entry{y_t, yb_t, 0, 0.0, true};
            }
            ++total_[id];
        }
        return out;
    }

    /** One timestep of the (layer, dir) cell. */
    void
    step(std::size_t layer, std::size_t dir, std::span<const float> x,
         State &s)
    {
        using nn::sigmoid;
        using nn::tanhAct;
        const std::size_t base = (layer * config_.directions() + dir) *
                                 nn::gateCount(config_.cellType);
        const auto params = [&](std::size_t g) -> const nn::GateParams & {
            return network_.gateParams(ids_[base + g]);
        };
        const std::size_t hidden = config_.hiddenSize;
        switch (config_.cellType) {
          case nn::CellType::Lstm: {
            // Every gate reads (x_t, h_{t-1}).
            const auto pi = gate(layer, dir, nn::LstmInput, x, s.h);
            const auto pf = gate(layer, dir, nn::LstmForget, x, s.h);
            const auto pg = gate(layer, dir, nn::LstmUpdate, x, s.h);
            const auto po = gate(layer, dir, nn::LstmOutput, x, s.h);
            const nn::GateParams &gi = params(nn::LstmInput);
            const nn::GateParams &gf = params(nn::LstmForget);
            const nn::GateParams &gg = params(nn::LstmUpdate);
            const nn::GateParams &go = params(nn::LstmOutput);
            for (std::size_t n = 0; n < hidden; ++n) {
                const float c_prev = s.c[n];
                float zi = pi[n] + gi.bias[n];
                float zf = pf[n] + gf.bias[n];
                if (config_.peepholes) {
                    zi = std::fma(gi.peephole[n], c_prev, zi);
                    zf = std::fma(gf.peephole[n], c_prev, zf);
                }
                const float i_t = sigmoid(zi);                 // Eq. 1
                const float f_t = sigmoid(zf);                 // Eq. 2
                const float g_t = tanhAct(pg[n] + gg.bias[n]); // Eq. 3
                const float c_t = std::fma(f_t, c_prev, i_t * g_t); // Eq. 4
                float zo = po[n] + go.bias[n];
                if (config_.peepholes)
                    zo = std::fma(go.peephole[n], c_t, zo);
                const float o_t = sigmoid(zo); // Eq. 5
                s.c[n] = c_t;
                s.h[n] = o_t * tanhAct(c_t); // Eq. 6
            }
            return;
          }
          case nn::CellType::Gru: {
            const auto pz = gate(layer, dir, nn::GruUpdate, x, s.h);
            const auto pr = gate(layer, dir, nn::GruReset, x, s.h);
            const nn::GateParams &gz = params(nn::GruUpdate);
            const nn::GateParams &gr = params(nn::GruReset);
            const nn::GateParams &gg = params(nn::GruCandidate);
            // The candidate's recurrent operand is r_t . h_{t-1}.
            std::vector<float> rh(hidden);
            for (std::size_t n = 0; n < hidden; ++n)
                rh[n] = sigmoid(pr[n] + gr.bias[n]) * s.h[n];
            const auto pg = gate(layer, dir, nn::GruCandidate, x, rh);
            for (std::size_t n = 0; n < hidden; ++n) {
                const float z_t = sigmoid(pz[n] + gz.bias[n]);
                const float g_t = tanhAct(pg[n] + gg.bias[n]);
                s.h[n] = std::fma(1.f - z_t, s.h[n], z_t * g_t);
            }
            return;
          }
          case nn::CellType::Brc: {
            const auto pa = gate(layer, dir, nn::BrcMod, x, s.h);
            const auto pc = gate(layer, dir, nn::BrcUpdate, x, s.h);
            const nn::GateParams &ga = params(nn::BrcMod);
            const nn::GateParams &gc = params(nn::BrcUpdate);
            const nn::GateParams &gg = params(nn::BrcCandidate);
            // The candidate's recurrent operand is a_t . h_{t-1}.
            std::vector<float> ah(hidden);
            for (std::size_t n = 0; n < hidden; ++n)
                ah[n] = (1.f + tanhAct(pa[n] + ga.bias[n])) * s.h[n];
            const auto pg = gate(layer, dir, nn::BrcCandidate, x, ah);
            for (std::size_t n = 0; n < hidden; ++n) {
                const float c_t = sigmoid(pc[n] + gc.bias[n]);
                const float g_t = tanhAct(pg[n] + gg.bias[n]);
                s.h[n] = std::fma(c_t, s.h[n], (1.f - c_t) * g_t);
            }
            return;
          }
          case nn::CellType::RateRnn: {
            const auto pd = gate(layer, dir, nn::RateDrive, x, s.h);
            const nn::GateParams &gd = params(nn::RateDrive);
            for (std::size_t n = 0; n < hidden; ++n) {
                const float d_t = tanhAct(pd[n] + gd.bias[n]);
                const float a = gd.peephole[n]; // per-neuron leak dt/tau
                s.h[n] = std::fma(1.f - a, s.h[n], a * d_t);
            }
            return;
          }
        }
    }

    const nn::RnnNetwork &network_;
    const nn::RnnConfig config_;
    ReferenceOptions options_;
    std::int64_t thetaRaw_;
    std::vector<std::size_t> ids_; ///< (layer, dir, gate) -> instanceId
    std::vector<Entry> table_;     ///< by flat neuron
    std::vector<std::uint64_t> reused_;
    std::vector<std::uint64_t> total_;
};

} // namespace nlfm::reference

#endif // NLFM_TESTS_REFERENCE_SCALAR_REFERENCE_HH
