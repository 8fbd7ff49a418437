"""Build a small FMEDA table in code and read off SPFM and LFM.

The table models the execution stage of a small CPU: a multiplier/divider
unit and its control logic, each with a couple of failure modes.  Rates
are in FIT (failures per 1e9 device-hours), coverages are fractions.
"""

from fmeda_uq import (
    FailureModeRow,
    FmedaTable,
    Part,
    Subpart,
    analyze,
    validate,
)
from fmeda_uq.model import iter_rows

muldiv = Subpart("MUL_DIV", failure_modes=(
    FailureModeRow(id="MD1", name="wrong multiply result",
                   lambda_fm=12.0, dc=0.92, dc_latent=0.70,
                   safety_mechanisms=("RESULT_CHECK",)),
    FailureModeRow(id="MD2", name="divide hangs",
                   lambda_fm=3.0, dc=0.99, dc_latent=0.85,
                   safety_mechanisms=("WATCHDOG",)),
))
control = Subpart("EX_CTRL", failure_modes=(
    FailureModeRow(id="EC1", name="wrong forwarding",
                   lambda_fm=7.5, dc=0.88, dc_latent=0.60,
                   safety_mechanisms=("LOCKSTEP",)),
    FailureModeRow(id="EC2", name="stall never released",
                   lambda_fm=2.5, dc=0.95, dc_latent=0.90,
                   safety_mechanisms=("WATCHDOG", "LOCKSTEP")),
))
table = FmedaTable((Part("CPU_EXEC", (muldiv, control)),))

# Always validate before computing; violations are returned as data.
problems = validate(table)
print(f"violations: {problems if problems else 'none'}")

result = analyze(table)
print(f"total failure rate: {result.lambda_tot:.1f} FIT")
print(f"SPFM = {result.spfm:.4f}")
print(f"LFM  = {result.lfm:.4f}")

# SPFM is the lambda-weighted mean coverage, so improving the coverage of
# the largest contributor moves the metric the most.
for _, sub, row in iter_rows(table):
    residual = (1 - row.dc) * row.lambda_fm
    print(f"  {row.id:4s} residual {residual:5.2f} FIT  ({sub.name})")
