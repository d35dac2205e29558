/**
 * @file
 * The per-neuron reuse decision of BatchMemoEngine (Eqs. 9-14), in its
 * scalar form: the decision loops of every panel that the AVX-512
 * decide does not cover, and that decide's tail, call these, so its
 * vector form has one definition to match.
 */

#ifndef NLFM_MEMO_MEMO_DECISION_HH
#define NLFM_MEMO_MEMO_DECISION_HH

#include <cmath>
#include <cstdint>

#include "common/fixed_point.hh"
#include "tensor/vector_ops.hh"

namespace nlfm::memo
{

/** Outcome of the BNN predictor for one neuron at one timestep. */
struct BnnDecision
{
    bool reuse = false;
    /** delta_b to store when reusing (Q16 raw / double path). */
    std::int64_t deltaRaw = 0;
    double deltaFp = 0.0;
};

/**
 * BNN reuse decision (Eqs. 12-14): relative BNN difference, throttling
 * accumulation, and the theta comparison in Q16.16 or double.
 *
 * @param yb_t     current binarized output
 * @param yb_m     cached binarized output (ignored unless @p valid)
 * @param valid    memo entry holds a value
 * @param prev_raw accumulated delta_b, Q16 raw (fixed-point path)
 * @param prev_fp  accumulated delta_b (double path)
 */
inline BnnDecision
bnnReuseDecision(std::int32_t yb_t, std::int32_t yb_m, bool valid,
                 std::int64_t prev_raw, double prev_fp, bool throttle,
                 bool fixed_point, double theta, Q16 theta_q)
{
    BnnDecision decision;
    if (!valid)
        return decision;

    if (yb_t == 0) {
        // Relative error undefined; only a bit-identical BNN output
        // counts as "no change".
        if (yb_m == 0) {
            decision.deltaRaw = throttle ? prev_raw : 0;
            decision.deltaFp = throttle ? prev_fp : 0.0;
            decision.reuse =
                fixed_point ? Q16::fromRaw(decision.deltaRaw) <= theta_q
                            : decision.deltaFp <= theta;
        }
    } else if (fixed_point) {
        // eps_b in Q16.16: |yb_t - yb_m| / |yb_t| (Eq. 12), accumulated
        // into delta_b (Eq. 13) and compared against theta (Eq. 14).
        //
        // The division only has to run when the neuron actually reuses
        // (to materialize the stored delta_b); the comparison itself is
        // division-free. With q = floor((diff << 16) / mag) and
        // nonnegative operands,
        //
        //     prev + q <= theta  ⟺  q < theta - prev + 1
        //                        ⟺  diff << 16 < (theta - prev + 1) * mag
        //
        // (floor(a/b) < K ⟺ a < K*b for b > 0), so misses — the common
        // case at low reuse, one decision per neuron per slot per
        // timestep — skip the divide entirely. The product runs in
        // 128-bit so a saturated theta cannot overflow it.
        const std::int64_t diff =
            std::abs(static_cast<std::int64_t>(yb_t) - yb_m);
        const std::int64_t mag =
            std::abs(static_cast<std::int64_t>(yb_t));
        const std::int64_t prev = throttle ? prev_raw : 0;
        const std::int64_t scaled_diff = diff << 16;
        const __int128 headroom =
            static_cast<__int128>(theta_q.raw()) - prev + 1;
        if (static_cast<__int128>(scaled_diff) < headroom * mag) {
            decision.deltaRaw = prev + scaled_diff / mag;
            decision.reuse = true;
        }
    } else {
        const double eps = tensor::relativeDifference(
            static_cast<double>(yb_t), static_cast<double>(yb_m));
        decision.deltaFp = (throttle ? prev_fp : 0.0) + eps;
        decision.reuse = decision.deltaFp <= theta;
    }
    return decision;
}

/**
 * Oracle reuse decision (Eq. 9): reuse while the true relative output
 * change stays within theta.
 */
inline bool
oracleReuseDecision(float y_t, float y_m, bool valid, double theta)
{
    return valid && tensor::relativeDifference(y_t, y_m) <= theta;
}

} // namespace nlfm::memo

#endif // NLFM_MEMO_MEMO_DECISION_HH
