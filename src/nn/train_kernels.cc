#include "nn/train_kernels.hh"

#include "common/logging.hh"
#include "nn/activations.hh"

namespace nlfm::nn::train
{

namespace
{

// ---------------------------------------------------------------- LSTM

class LstmKernel final : public CellBpttKernel
{
  public:
    void
    checkTrainable(const RnnConfig &config) const override
    {
        nlfm_assert(!config.peepholes,
                    "BpttTrainer does not model peephole gradients; "
                    "construct the network with peepholes=false");
    }

    void
    backwardStep(RnnCell &cell, const LayerCache &cache, std::size_t t,
                 std::span<const float> dh, std::vector<float> &dc_next,
                 std::vector<float> &dh_next,
                 std::vector<float> (&da)[4]) const override
    {
        (void)dh_next;
        const std::size_t hidden = dh.size();
        const auto &pre_i = cache.preact[LstmInput][t];
        const auto &pre_f = cache.preact[LstmForget][t];
        const auto &pre_g = cache.preact[LstmUpdate][t];
        const auto &pre_o = cache.preact[LstmOutput][t];
        const auto &bias_i = cell.gate(LstmInput).bias;
        const auto &bias_f = cell.gate(LstmForget).bias;
        const auto &bias_g = cell.gate(LstmUpdate).bias;
        const auto &bias_o = cell.gate(LstmOutput).bias;
        for (std::size_t n = 0; n < hidden; ++n) {
            const float i_t = sigmoid(pre_i[n] + bias_i[n]);
            const float f_t = sigmoid(pre_f[n] + bias_f[n]);
            const float g_t = tanhAct(pre_g[n] + bias_g[n]);
            const float o_t = sigmoid(pre_o[n] + bias_o[n]);
            const float tanh_c = tanhAct(cache.c[t][n]);
            const float c_prev = t > 0 ? cache.c[t - 1][n] : 0.f;
            const float dc =
                dh[n] * o_t * tanhGradFromOutput(tanh_c) + dc_next[n];
            da[LstmOutput][n] =
                dh[n] * tanh_c * sigmoidGradFromOutput(o_t);
            da[LstmInput][n] = dc * g_t * sigmoidGradFromOutput(i_t);
            da[LstmUpdate][n] = dc * i_t * tanhGradFromOutput(g_t);
            da[LstmForget][n] = dc * c_prev * sigmoidGradFromOutput(f_t);
            dc_next[n] = dc * f_t;
        }
    }
};

// ----------------------------------------------------------------- GRU

class GruKernel final : public CellBpttKernel
{
  public:
    void
    backwardStep(RnnCell &cell, const LayerCache &cache, std::size_t t,
                 std::span<const float> dh, std::vector<float> &dc_next,
                 std::vector<float> &dh_next,
                 std::vector<float> (&da)[4]) const override
    {
        (void)dc_next;
        const std::size_t hidden = dh.size();
        const auto &pre_z = cache.preact[GruUpdate][t];
        const auto &pre_r = cache.preact[GruReset][t];
        const auto &pre_g = cache.preact[GruCandidate][t];
        const auto &bias_z = cell.gate(GruUpdate).bias;
        const auto &bias_r = cell.gate(GruReset).bias;
        const GateParams &cand = cell.gate(GruCandidate);
        std::vector<float> drh(hidden, 0.f);
        for (std::size_t n = 0; n < hidden; ++n) {
            const float z_t = sigmoid(pre_z[n] + bias_z[n]);
            const float g_t = tanhAct(pre_g[n] + cand.bias[n]);
            const float hp = t > 0 ? cache.h[t - 1][n] : 0.f;
            da[GruUpdate][n] =
                dh[n] * (g_t - hp) * sigmoidGradFromOutput(z_t);
            da[GruCandidate][n] = dh[n] * z_t * tanhGradFromOutput(g_t);
            dh_next[n] += dh[n] * (1.f - z_t);
        }
        cand.wh.matvecTransposeAccum(da[GruCandidate], drh);
        for (std::size_t n = 0; n < hidden; ++n) {
            const float r_t = sigmoid(pre_r[n] + bias_r[n]);
            const float hp = t > 0 ? cache.h[t - 1][n] : 0.f;
            dh_next[n] += drh[n] * r_t;
            da[GruReset][n] = drh[n] * hp * sigmoidGradFromOutput(r_t);
        }
    }

    const std::vector<float> *
    recurrentOperand(const LayerCache &cache, std::size_t t,
                     std::size_t g) const override
    {
        // Candidate's recurrent operand is r.h_prev.
        if (g == GruCandidate)
            return &cache.scratch[t];
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
    backwardStep(RnnCell &cell, const LayerCache &cache, std::size_t t,
                 std::span<const float> dh, std::vector<float> &dc_next,
                 std::vector<float> &dh_next,
                 std::vector<float> (&da)[4]) const override
    {
        (void)dc_next;
        const std::size_t hidden = dh.size();
        const GateParams &params = cell.gate(RateDrive);
        const auto &pre = cache.preact[RateDrive][t];
        for (std::size_t n = 0; n < hidden; ++n) {
            const float d_t = tanhAct(pre[n] + params.bias[n]);
            const float a = params.peephole[n];
            da[RateDrive][n] = dh[n] * a * tanhGradFromOutput(d_t);
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
    backwardStep(RnnCell &cell, const LayerCache &cache, std::size_t t,
                 std::span<const float> dh, std::vector<float> &dc_next,
                 std::vector<float> &dh_next,
                 std::vector<float> (&da)[4]) const override
    {
        (void)dc_next;
        const std::size_t hidden = dh.size();
        const auto &pre_a = cache.preact[BrcMod][t];
        const auto &pre_c = cache.preact[BrcUpdate][t];
        const auto &pre_g = cache.preact[BrcCandidate][t];
        const auto &bias_a = cell.gate(BrcMod).bias;
        const auto &bias_c = cell.gate(BrcUpdate).bias;
        const GateParams &cand = cell.gate(BrcCandidate);
        std::vector<float> dah(hidden, 0.f);
        for (std::size_t n = 0; n < hidden; ++n) {
            const float c_t = sigmoid(pre_c[n] + bias_c[n]);
            const float g_t = tanhAct(pre_g[n] + cand.bias[n]);
            const float hp = t > 0 ? cache.h[t - 1][n] : 0.f;
            da[BrcUpdate][n] =
                dh[n] * (hp - g_t) * sigmoidGradFromOutput(c_t);
            da[BrcCandidate][n] =
                dh[n] * (1.f - c_t) * tanhGradFromOutput(g_t);
            dh_next[n] += dh[n] * c_t;
        }
        cand.wh.matvecTransposeAccum(da[BrcCandidate], dah);
        for (std::size_t n = 0; n < hidden; ++n) {
            const float a_t = 1.f + tanhAct(pre_a[n] + bias_a[n]);
            const float hp = t > 0 ? cache.h[t - 1][n] : 0.f;
            dh_next[n] += dah[n] * a_t;
            // a = 1 + tanh(pa), so da/dpa = 1 - tanh^2 = grad from the
            // tanh output, read back as a - 1 ((1 + t) - 1 need not be
            // t in float, so the two give different gradients).
            da[BrcMod][n] = dah[n] * hp * tanhGradFromOutput(a_t - 1.f);
        }
    }

    const std::vector<float> *
    recurrentOperand(const LayerCache &cache, std::size_t t,
                     std::size_t g) const override
    {
        if (g == BrcCandidate)
            return &cache.scratch[t];
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
