"""Cross-check the closed-form sigmas against brute-force simulation.

The propagation formulas are first-order.  The Monte Carlo oracle draws
every uncertain input from its normal distribution, recomputes the metric
per sample, and compares the empirical spread against the analytic one.
Seeded PCG64 makes every verdict bit-reproducible.
"""

from fmeda_uq import (
    FailureModeRow,
    FmedaTable,
    McConfig,
    Part,
    Subpart,
    verify,
)

table = FmedaTable((Part("CPU", (Subpart("EXEC", failure_modes=(
    FailureModeRow(id="FM1", lambda_fm=50.0, dc=0.90, sigma_dc=0.02,
                   dc_latent=0.6, sigma_dc_latent=0.01),
    FailureModeRow(id="FM2", lambda_fm=50.0, dc=0.99, sigma_dc=0.001,
                   sigma_lambda_fm=3.0, dc_latent=0.8),
)),)),))


def show(verdict):
    print(f"  {verdict.metric}: empirical {verdict.empirical_sigma:.6f} "
          f"vs analytic {verdict.analytic_sigma:.6f} "
          f"(gap {verdict.relative_gap:.2%}, tolerance {verdict.tolerance:.0%}) "
          f"-> {'pass' if verdict.passed else 'FAIL'}")


config = McConfig(samples=200_000, seed=42)
print(f"{config.samples} samples, seed {config.seed}:")
# One pass draws every uncertain input once and judges both metrics.
spfm_verdict, lfm_verdict, _ = verify(table, config)
show(spfm_verdict)
show(lfm_verdict)

# Same seed, same verdicts, bit for bit.
print(f"\nreproducible: {verify(table, config) == (spfm_verdict, lfm_verdict, None)}")

# Push an input against its physical bound and the clamping starts to
# bias the comparison; the verdict reports the truncation rate and warns.
edgy = FmedaTable((Part("CPU", (Subpart("EXEC", failure_modes=(
    FailureModeRow(id="FM1", lambda_fm=100.0, dc=0.985, sigma_dc=0.02),
)),)),))
v = verify(edgy, McConfig(samples=100_000, seed=7))[0]
print(f"\ncoverage one sigma below 1.0: truncation rate {v.truncation_rate:.1%}")
print(f"  warning: {v.warning}")

# With truncation off the draw is unbounded and the linear theory is
# exact, so the gap collapses at high sample counts.
v = verify(edgy, McConfig(samples=1_000_000, seed=7, truncate=False))[0]
print(f"untruncated at 1e6 samples: gap {v.relative_gap:.3%}")
