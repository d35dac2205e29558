/**
 * @file
 * Configuration of the neuron-level fuzzy memoization engines (the
 * paper's contribution, §3).
 *
 * Per neuron and timestep an engine decides between reusing the cached
 * output y_m and performing the full-precision evaluation, using one of
 * two predictors:
 *
 *  - Oracle (§3.1.1, Fig. 6, Eqs. 9-11): computes the true output y_t and
 *    reuses y_m when |y_t - y_m|/|y_t| <= theta. It spends the
 *    computation it claims to save — it exists to measure the *potential*
 *    of fuzzy memoization (Figs. 1 and 16).
 *
 *  - BNN (§3.2, Fig. 10, Eqs. 12-17): evaluates the binarized mirror
 *    neuron (cheap XNOR/popcount), forms the relative BNN difference
 *    eps_b = |yb_t - yb_m|/|yb_t|, accumulates it over consecutive
 *    reuses into delta_b (the throttling mechanism, Eq. 13), and reuses
 *    y_m while delta_b <= theta. The comparison runs in Q16.16
 *    fixed-point, mirroring the FMU's integer/fixed-point CMP unit.
 */

#ifndef NLFM_MEMO_MEMO_OPTIONS_HH
#define NLFM_MEMO_MEMO_OPTIONS_HH

namespace nlfm::memo
{

/** Which similarity predictor drives the reuse decision. */
enum class PredictorKind
{
    Oracle, ///< perfect knowledge of the current output (potential study)
    Bnn,    ///< binarized-network predictor (the deployable scheme)
};

/** Engine configuration. */
struct MemoOptions
{
    PredictorKind predictor = PredictorKind::Bnn;
    /**
     * Maximum allowed (accumulated) relative error theta; the BNN
     * predictor compares against its nearest Q16.16 value.
     */
    double theta = 0.05;
    /**
     * Accumulate eps_b across consecutive reuses (Eq. 13). Disabling
     * reproduces the "without throttling" ablation of Fig. 11, where the
     * decision uses the instantaneous eps_b only.
     */
    bool throttle = true;
    /** Record per-step miss counts for the accelerator model. */
    bool recordTrace = false;
};

} // namespace nlfm::memo

#endif // NLFM_MEMO_MEMO_OPTIONS_HH
