"""Rank the uncertainty sources: where would better data help most?

Each uncertain input owns one additive slice of the SPFM variance, so the
slices form a percentage breakdown (the EII report columns).  Shrinking
the dominant slice is the cheapest way to tighten the final interval.
"""

from dataclasses import replace

from fmeda_uq import (
    FailureModeRow,
    FmedaTable,
    Part,
    Subpart,
    analyze,
)

rows = (
    FailureModeRow(id="ALU", lambda_fm=40.0, dc=0.90, sigma_dc=0.030),
    FailureModeRow(id="FPU", lambda_fm=25.0, dc=0.95, sigma_dc=0.010,
                   sigma_lambda_fm=4.0),
    FailureModeRow(id="LSU", lambda_fm=35.0, dc=0.85, sigma_dc=0.004,
                   sigma_lambda_fm=1.0),
)
table = FmedaTable((Part("CORE", (Subpart("PIPE", failure_modes=rows),)),))

result = analyze(table)
print(f"sigma_SPFM = {result.sigma_spfm_full:.6f}\n")
print(f"{'failure mode':14s} {'input':10s} {'share %':>8s}   raw EII")
entries = result.eii_entries
for e in entries:
    print(f"{e['failure_mode']:14s} {e['input']:10s} {e['percent']:8.2f}   {e['raw_eii']:.3e}")

print("\nper failure mode (the report's total column):")
for t in result.eii_totals:
    print(f"  {t['failure_mode']:8s} {t['percent']:6.2f} %")

# Act on the ranking: re-measure the dominant input (ALU coverage) and
# watch the total uncertainty drop; the remaining shares rescale
# proportionally.  Entries name their row by failure-mode id.
top = entries[0]
i = [row.id for row in rows].index(top["failure_mode"])
fixed_rows = list(rows)
fixed_rows[i] = replace(fixed_rows[i], sigma_dc=0.005)
better = FmedaTable((Part("CORE", (Subpart("PIPE",
                                           failure_modes=tuple(fixed_rows)),)),))
print(f"\nafter re-measuring {top['failure_mode']} coverage:")
after = analyze(better)
print(f"  sigma_SPFM {result.sigma_spfm_full:.6f} -> {after.sigma_spfm_full:.6f}")
for e in after.eii_entries[:3]:
    print(f"  {e['failure_mode']:8s} {e['input']:10s} {e['percent']:6.2f} %")
