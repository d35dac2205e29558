#include "nn/train_kernels.hh"

#include "common/logging.hh"
#include "nn/activations.hh"
#include "tensor/vector_ops.hh"

namespace nlfm::nn::train
{

namespace
{

/**
 * Neuron n's Wx[n].x + Wh[n].h, in the dotLanes order of the inference
 * panel kernels, so a trained step reproduces the inference one.
 */
float
preactivation(const GateParams &params, std::size_t n,
              std::span<const float> x, std::span<const float> h)
{
    return tensor::dotLanes(params.wx.row(n), x) +
           tensor::dotLanes(params.wh.row(n), h);
}

// ---------------------------------------------------------------- LSTM

class LstmKernel final : public CellBpttKernel
{
  public:
    bool usesCellState() const override { return true; }

    void
    checkTrainable(const RnnConfig &config) const override
    {
        nlfm_assert(!config.peepholes,
                    "BpttTrainer does not model peephole gradients; "
                    "construct the network with peepholes=false");
    }

    void
    forwardStep(RnnCell &cell, const std::vector<float> &x,
                const std::vector<float> &h_prev,
                const std::vector<float> &c_prev, LayerCache &cache,
                std::size_t t) const override
    {
        const std::size_t hidden = cell.hiddenSize();
        std::vector<float> preact(hidden, 0.f);
        for (std::size_t g = 0; g < 4; ++g) {
            const GateParams &params = cell.gate(g);
            for (std::size_t n = 0; n < hidden; ++n) {
                preact[n] = preactivation(params, n, x, h_prev) +
                            params.bias[n];
            }
            auto &act = cache.gate[g][t];
            for (std::size_t n = 0; n < hidden; ++n) {
                act[n] = (g == LstmUpdate) ? tanhAct(preact[n])
                                           : sigmoid(preact[n]);
            }
        }
        for (std::size_t n = 0; n < hidden; ++n) {
            const float c_t =
                cache.gate[LstmForget][t][n] * c_prev[n] +
                cache.gate[LstmInput][t][n] *
                    cache.gate[LstmUpdate][t][n];
            cache.c[t][n] = c_t;
            cache.aux[t][n] = tanhAct(c_t);
            cache.h[t][n] =
                cache.gate[LstmOutput][t][n] * cache.aux[t][n];
        }
    }

    void
    backwardStep(RnnCell &cell, const LayerCache &cache, std::size_t t,
                 std::span<const float> dh, std::vector<float> &dc_next,
                 std::vector<float> &dh_next,
                 std::vector<float> (&da)[4]) const override
    {
        (void)cell;
        (void)dh_next;
        const std::size_t hidden = dh.size();
        const auto &i_t = cache.gate[LstmInput][t];
        const auto &f_t = cache.gate[LstmForget][t];
        const auto &g_t = cache.gate[LstmUpdate][t];
        const auto &o_t = cache.gate[LstmOutput][t];
        const auto &tanh_c = cache.aux[t];
        for (std::size_t n = 0; n < hidden; ++n) {
            const float c_prev = t > 0 ? cache.c[t - 1][n] : 0.f;
            const float dc =
                dh[n] * o_t[n] * tanhGradFromOutput(tanh_c[n]) +
                dc_next[n];
            da[LstmOutput][n] =
                dh[n] * tanh_c[n] * sigmoidGradFromOutput(o_t[n]);
            da[LstmInput][n] =
                dc * g_t[n] * sigmoidGradFromOutput(i_t[n]);
            da[LstmUpdate][n] =
                dc * i_t[n] * tanhGradFromOutput(g_t[n]);
            da[LstmForget][n] =
                dc * c_prev * sigmoidGradFromOutput(f_t[n]);
            dc_next[n] = dc * f_t[n];
        }
    }
};

// ----------------------------------------------------------------- GRU

class GruKernel final : public CellBpttKernel
{
  public:
    void
    forwardStep(RnnCell &cell, const std::vector<float> &x,
                const std::vector<float> &h_prev,
                const std::vector<float> &c_prev, LayerCache &cache,
                std::size_t t) const override
    {
        (void)c_prev;
        const std::size_t hidden = cell.hiddenSize();
        // z then r on h_prev, candidate on r.h_prev.
        for (std::size_t g : {GruUpdate, GruReset}) {
            const GateParams &params = cell.gate(g);
            auto &act = cache.gate[g][t];
            for (std::size_t n = 0; n < hidden; ++n) {
                act[n] = sigmoid(preactivation(params, n, x, h_prev) +
                                 params.bias[n]);
            }
        }
        for (std::size_t n = 0; n < hidden; ++n)
            cache.aux[t][n] = cache.gate[GruReset][t][n] * h_prev[n];
        const GateParams &cand = cell.gate(GruCandidate);
        auto &g_act = cache.gate[GruCandidate][t];
        for (std::size_t n = 0; n < hidden; ++n) {
            g_act[n] = tanhAct(
                preactivation(cand, n, x, cache.aux[t]) + cand.bias[n]);
        }
        for (std::size_t n = 0; n < hidden; ++n) {
            const float z = cache.gate[GruUpdate][t][n];
            cache.h[t][n] = (1.f - z) * h_prev[n] + z * g_act[n];
        }
    }

    void
    backwardStep(RnnCell &cell, const LayerCache &cache, std::size_t t,
                 std::span<const float> dh, std::vector<float> &dc_next,
                 std::vector<float> &dh_next,
                 std::vector<float> (&da)[4]) const override
    {
        (void)dc_next;
        const std::size_t hidden = dh.size();
        const auto &z_t = cache.gate[GruUpdate][t];
        const auto &r_t = cache.gate[GruReset][t];
        const auto &g_t = cache.gate[GruCandidate][t];
        std::vector<float> drh(hidden, 0.f);
        for (std::size_t n = 0; n < hidden; ++n) {
            const float hp = t > 0 ? cache.h[t - 1][n] : 0.f;
            da[GruUpdate][n] =
                dh[n] * (g_t[n] - hp) * sigmoidGradFromOutput(z_t[n]);
            da[GruCandidate][n] =
                dh[n] * z_t[n] * tanhGradFromOutput(g_t[n]);
            dh_next[n] += dh[n] * (1.f - z_t[n]);
        }
        const GateParams &cand = cell.gate(GruCandidate);
        cand.wh.matvecTransposeAccum(da[GruCandidate], drh);
        for (std::size_t n = 0; n < hidden; ++n) {
            const float hp = t > 0 ? cache.h[t - 1][n] : 0.f;
            dh_next[n] += drh[n] * r_t[n];
            da[GruReset][n] =
                drh[n] * hp * sigmoidGradFromOutput(r_t[n]);
        }
    }

    const std::vector<float> *
    recurrentOperand(const LayerCache &cache, std::size_t t,
                     std::size_t g) const override
    {
        // Candidate's recurrent operand is r.h_prev.
        if (g == GruCandidate)
            return &cache.aux[t];
        return t > 0 ? &cache.h[t - 1] : nullptr;
    }

    bool
    backpropRecurrentThroughWh(std::size_t g) const override
    {
        // The candidate's recurrent gradient was routed through the
        // modulated operand in backwardStep().
        return g != GruCandidate;
    }
};

// ------------------------------------------------------------ rate RNN

/**
 * r_t = (1 - alpha).r_{t-1} + alpha.tanh(W x + U r_{t-1} + b), with the
 * per-neuron leak alpha = dt/tau held fixed (structure, not a trained
 * parameter — it lives in the gate's aux vector and is skipped by
 * parameter registration and initGate alike).
 */
class RateRnnKernel final : public CellBpttKernel
{
  public:
    void
    forwardStep(RnnCell &cell, const std::vector<float> &x,
                const std::vector<float> &h_prev,
                const std::vector<float> &c_prev, LayerCache &cache,
                std::size_t t) const override
    {
        (void)c_prev;
        const std::size_t hidden = cell.hiddenSize();
        const GateParams &params = cell.gate(RateDrive);
        auto &phi = cache.gate[RateDrive][t];
        for (std::size_t n = 0; n < hidden; ++n) {
            phi[n] = tanhAct(preactivation(params, n, x, h_prev) +
                             params.bias[n]);
        }
        for (std::size_t n = 0; n < hidden; ++n) {
            const float a = params.peephole[n];
            cache.h[t][n] = (1.f - a) * h_prev[n] + a * phi[n];
        }
    }

    void
    backwardStep(RnnCell &cell, const LayerCache &cache, std::size_t t,
                 std::span<const float> dh, std::vector<float> &dc_next,
                 std::vector<float> &dh_next,
                 std::vector<float> (&da)[4]) const override
    {
        (void)dc_next;
        const std::size_t hidden = dh.size();
        const GateParams &params = cell.gate(RateDrive);
        const auto &phi = cache.gate[RateDrive][t];
        for (std::size_t n = 0; n < hidden; ++n) {
            const float a = params.peephole[n];
            da[RateDrive][n] = dh[n] * a * tanhGradFromOutput(phi[n]);
            dh_next[n] += dh[n] * (1.f - a);
        }
    }
};

// ----------------------------------------------------------------- BRC

/**
 * a_t = 1 + tanh(pa), c_t = sigma(pc),
 * g_t = tanh(Wg x + Ug (a_t . h_{t-1}) + bg),
 * h_t = c_t . h_{t-1} + (1 - c_t) . g_t.
 * The candidate mirrors the GRU idiom: its recurrent operand is the
 * modulated hidden state, routed through the full Ug.
 */
class BrcKernel final : public CellBpttKernel
{
  public:
    void
    forwardStep(RnnCell &cell, const std::vector<float> &x,
                const std::vector<float> &h_prev,
                const std::vector<float> &c_prev, LayerCache &cache,
                std::size_t t) const override
    {
        (void)c_prev;
        const std::size_t hidden = cell.hiddenSize();
        const GateParams &mod = cell.gate(BrcMod);
        auto &a_act = cache.gate[BrcMod][t];
        for (std::size_t n = 0; n < hidden; ++n) {
            a_act[n] = 1.f + tanhAct(preactivation(mod, n, x, h_prev) +
                                     mod.bias[n]);
        }
        const GateParams &upd = cell.gate(BrcUpdate);
        auto &c_act = cache.gate[BrcUpdate][t];
        for (std::size_t n = 0; n < hidden; ++n) {
            c_act[n] = sigmoid(preactivation(upd, n, x, h_prev) +
                               upd.bias[n]);
        }
        for (std::size_t n = 0; n < hidden; ++n)
            cache.aux[t][n] = a_act[n] * h_prev[n];
        const GateParams &cand = cell.gate(BrcCandidate);
        auto &g_act = cache.gate[BrcCandidate][t];
        for (std::size_t n = 0; n < hidden; ++n) {
            g_act[n] = tanhAct(
                preactivation(cand, n, x, cache.aux[t]) + cand.bias[n]);
        }
        for (std::size_t n = 0; n < hidden; ++n) {
            cache.h[t][n] =
                c_act[n] * h_prev[n] + (1.f - c_act[n]) * g_act[n];
        }
    }

    void
    backwardStep(RnnCell &cell, const LayerCache &cache, std::size_t t,
                 std::span<const float> dh, std::vector<float> &dc_next,
                 std::vector<float> &dh_next,
                 std::vector<float> (&da)[4]) const override
    {
        (void)dc_next;
        const std::size_t hidden = dh.size();
        const auto &a_t = cache.gate[BrcMod][t];
        const auto &c_t = cache.gate[BrcUpdate][t];
        const auto &g_t = cache.gate[BrcCandidate][t];
        std::vector<float> dah(hidden, 0.f);
        for (std::size_t n = 0; n < hidden; ++n) {
            const float hp = t > 0 ? cache.h[t - 1][n] : 0.f;
            da[BrcUpdate][n] =
                dh[n] * (hp - g_t[n]) * sigmoidGradFromOutput(c_t[n]);
            da[BrcCandidate][n] =
                dh[n] * (1.f - c_t[n]) * tanhGradFromOutput(g_t[n]);
            dh_next[n] += dh[n] * c_t[n];
        }
        const GateParams &cand = cell.gate(BrcCandidate);
        cand.wh.matvecTransposeAccum(da[BrcCandidate], dah);
        for (std::size_t n = 0; n < hidden; ++n) {
            const float hp = t > 0 ? cache.h[t - 1][n] : 0.f;
            dh_next[n] += dah[n] * a_t[n];
            // a = 1 + tanh(pa), so da/dpa = 1 - tanh^2 = grad from the
            // tanh output (a - 1).
            da[BrcMod][n] =
                dah[n] * hp * tanhGradFromOutput(a_t[n] - 1.f);
        }
    }

    const std::vector<float> *
    recurrentOperand(const LayerCache &cache, std::size_t t,
                     std::size_t g) const override
    {
        if (g == BrcCandidate)
            return &cache.aux[t];
        return t > 0 ? &cache.h[t - 1] : nullptr;
    }

    bool
    backpropRecurrentThroughWh(std::size_t g) const override
    {
        return g != BrcCandidate;
    }
};

} // namespace

const CellBpttKernel &
lstmBpttKernel()
{
    static const LstmKernel kernel;
    return kernel;
}

const CellBpttKernel &
gruBpttKernel()
{
    static const GruKernel kernel;
    return kernel;
}

const CellBpttKernel &
rateRnnBpttKernel()
{
    static const RateRnnKernel kernel;
    return kernel;
}

const CellBpttKernel &
brcBpttKernel()
{
    static const BrcKernel kernel;
    return kernel;
}

} // namespace nlfm::nn::train
