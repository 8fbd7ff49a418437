"""Size statistical fault-injection campaigns and feed their margins back
into the uncertainty analysis.

Exhaustive injection of a million-fault list is rarely affordable.  A
uniform random sample bounds the coverage estimate to a chosen margin of
error at a chosen confidence, at a fraction of the simulations.
"""

from fmeda_uq import (
    DcSource,
    FailureModeRow,
    FmedaTable,
    Part,
    Subpart,
    analyze,
    margin_to_sigma,
    sample_size,
)
from fmeda_uq.model import table_arrays

# How many faults must actually be injected?
print(f"{'population':>12s} {'margin':>7s} {'conf':>5s} {'inject':>8s} {'saving':>8s}")
for population in (10_000, 100_000, 1_000_000, 10_000_000):
    for margin in (0.01, 0.02, 0.05):
        plan = sample_size(population, margin, 0.95)
        saving = 1.0 - plan.sample_size / population
        print(f"{population:12d} {margin:7.2f} {0.95:5.2f} "
              f"{plan.sample_size:8d} {saving:8.1%}")

# The sample size saturates: for a 1% margin at 95% it never exceeds 9604,
# no matter how large the fault list grows.
print(f"\nn at N=1e9: {sample_size(10**9, 0.01, 0.95).sample_size}")

# A campaign quoted as "margin 1% at 95%" is an estimator whose t-sigma
# half-width is 0.01, i.e. sigma_DC = e / t.
print(f"\nsigma_DC from e=0.01 @ 95%: {margin_to_sigma(0.01, 0.95):.6f}")
print(f"sigma_DC from e=0.01 @ 99%: {margin_to_sigma(0.01, 0.99):.6f}")

# Rows that record a fault-simulation source get that sigma automatically.
table = FmedaTable((Part("CPU", (Subpart("EXEC", failure_modes=(
    FailureModeRow(id="FM1", lambda_fm=60.0, dc=0.97,
                   dc_source=DcSource.fault_simulation(0.01, 0.95)),
    FailureModeRow(id="FM2", lambda_fm=40.0, dc=0.90, sigma_dc=0.02),
)),)),))

arr = table_arrays(table)
for row_id, sigma_dc in zip(arr.ids, arr.sigma_dc):
    print(f"  {row_id}: sigma_dc = {sigma_dc:.6f}")
print(f"sigma_SPFM with campaign margins folded in: {analyze(table).sigma_spfm_full:.6f}")
