"""FMEDA hardware safety metrics with quantified uncertainty.

Computes SPFM and LFM from hierarchical failure-mode tables, propagates
the standard deviations of diagnostic coverages and failure rates into
sigmas and confidence intervals on those metrics, ranks the uncertainty
sources (EII), sizes statistical fault-injection campaigns, and verifies
the analytic propagation against a seeded Monte Carlo oracle.
"""

__version__ = "0.1.0"

from .model import (
    DcSource,
    EXPERT_JUDGMENT,
    FailureModeRow,
    FmedaTable,
    FmedaValidationError,
    Part,
    Subpart,
    Violation,
    materialize_direct,
    validate,
)
from .metrics import (
    AsilVerdict,
    MetricValue,
    UndefinedMetricError,
    asil_verdict,
    lfm,
    spfm,
)
from .uncertainty import (
    Interval,
    PropagationMode,
    confidence_interval,
    sigma_lfm,
    sigma_spfm,
)
from .eii import EiiEntry, eii_table, total_per_failure_mode
from .sampling import (
    SampleSizePlan,
    margin_to_sigma,
    sample_size,
)
from .mc_oracle import McConfig, McVerdict, mc_sigma_lfm, mc_sigma_spfm
from .ingest import (
    ParseError,
    emit_csv,
    emit_json,
    emit_result,
    parse_csv,
    parse_json,
)
from .analysis import AnalysisResult, ReportRow, analyze

__all__ = [
    "AnalysisResult",
    "AsilVerdict",
    "DcSource",
    "EXPERT_JUDGMENT",
    "EiiEntry",
    "FailureModeRow",
    "FmedaTable",
    "FmedaValidationError",
    "Interval",
    "McConfig",
    "McVerdict",
    "MetricValue",
    "ParseError",
    "Part",
    "PropagationMode",
    "ReportRow",
    "SampleSizePlan",
    "Subpart",
    "UndefinedMetricError",
    "Violation",
    "analyze",
    "asil_verdict",
    "confidence_interval",
    "eii_table",
    "emit_csv",
    "emit_json",
    "emit_result",
    "lfm",
    "margin_to_sigma",
    "materialize_direct",
    "mc_sigma_lfm",
    "mc_sigma_spfm",
    "parse_csv",
    "parse_json",
    "sample_size",
    "sigma_lfm",
    "sigma_spfm",
    "spfm",
    "total_per_failure_mode",
    "validate",
    "__version__",
]
