"""Propagate input sigmas into sigma_SPFM and see a target turn fragile.

A nominal SPFM of 0.945 comfortably clears the ASIL B threshold of 0.90.
Once the coverages carry realistic estimation uncertainty, the question
becomes whether the lower confidence bound still clears it.
"""

from fmeda_uq import (
    FailureModeRow,
    FmedaTable,
    Part,
    PropagationMode,
    Subpart,
    analyze,
    confidence_interval,
)


def build(sigma_dc_1):
    return FmedaTable((Part("CPU", (Subpart("EXEC", failure_modes=(
        FailureModeRow(id="FM1", lambda_fm=50.0, dc=0.90, sigma_dc=sigma_dc_1,
                       dc_latent=0.6),
        FailureModeRow(id="FM2", lambda_fm=50.0, dc=0.99, sigma_dc=0.001,
                       sigma_lambda_fm=2.0, dc_latent=0.8),
    )),)),))


table = build(sigma_dc_1=0.02)
result = analyze(table, asil_target="B")
print(f"nominal SPFM = {result.spfm:.4f}")

# The variance splits additively between the two uncertainty families:
# sigma_full^2 = sigma_dc_only^2 + sigma_lambda_only^2.  The mode picks
# which one drives the interval and the verdict.
for mode in PropagationMode:
    print(f"sigma_SPFM [{mode.value:11s}] = {analyze(table, mode=mode).sigma_spfm:.6f}")

iv = confidence_interval(result.spfm, result.sigma_spfm_full, 0.95)
print(f"95% interval: [{iv.lo:.4f}, {iv.hi:.4f}]")

# Robust at B: even the lower bound clears 0.90.
print()
print(f"verdict at sigma_dc=0.02:  {result.verdict.overall}")

# Blow up the first coverage's uncertainty and the same nominal value no
# longer proves anything: the verdict degrades to PassFragile.
shaky = analyze(build(sigma_dc_1=0.05), asil_target="B")
print(f"verdict at sigma_dc=0.05:  {shaky.verdict.overall}")
print(f"  interval now [{shaky.interval_spfm.lo:.4f}, {shaky.interval_spfm.hi:.4f}]"
      f" vs threshold 0.90")
