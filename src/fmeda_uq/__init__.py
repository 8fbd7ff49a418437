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
    margin_to_sigma,
    validate,
)
from .metrics import AsilVerdict, asil_verdict
from .uncertainty import Interval, PropagationMode, confidence_interval
from .eii import EiiEntry
from .sampling import SampleSizePlan, sample_size
from .mc_oracle import McConfig, McVerdict, verify
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
    "ParseError",
    "Part",
    "PropagationMode",
    "ReportRow",
    "SampleSizePlan",
    "Subpart",
    "Violation",
    "analyze",
    "asil_verdict",
    "confidence_interval",
    "emit_csv",
    "emit_json",
    "emit_result",
    "margin_to_sigma",
    "parse_csv",
    "parse_json",
    "sample_size",
    "validate",
    "verify",
    "__version__",
]
