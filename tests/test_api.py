"""The public surface: the exported names, and the names that were removed."""

import dataclasses
import importlib
import pkgutil

import fmeda_uq
from fmeda_uq.uncertainty import _Propagation

PUBLIC = {
    "AnalysisResult", "AsilVerdict", "DcSource", "EXPERT_JUDGMENT",
    "FailureModeRow", "FmedaTable", "FmedaValidationError", "Interval",
    "McConfig", "McVerdict", "ParseError", "Part", "PropagationMode",
    "SampleSizePlan", "Subpart", "Violation", "analyze",
    "asil_verdict", "confidence_interval", "emit_csv", "emit_json",
    "emit_result", "margin_to_sigma", "parse_csv", "parse_json", "sample_size",
    "validate", "verify", "__version__",
}

# analyze and verify compute everything these computed one field at a time;
# the report's rows and EII entries are the document's own dicts.
REMOVED = {
    "metrics": ("spfm", "lfm", "MetricValue", "SPFM_KIND", "LFM_KIND"),
    "uncertainty": ("sigma_spfm", "sigma_lfm", "spfm_partials", "lfm_partials", "_by_mode"),
    "eii": ("eii_table", "EiiEntry"),
    "analysis": ("ReportRow",),
    "mc_oracle": ("mc_sigma_spfm", "mc_sigma_lfm", "_verify"),
    "model": ("materialize_direct",),
}


def test_all_names_the_public_surface():
    assert set(fmeda_uq.__all__) == PUBLIC
    assert len(fmeda_uq.__all__) == len(PUBLIC) == 29
    for name in fmeda_uq.__all__:
        assert getattr(fmeda_uq, name) is not None, name


def test_removed_names_are_gone():
    removed = {name for names in REMOVED.values() for name in names}
    # Still used inside the package, but no longer exported.
    unexported = {"total_per_failure_mode", "UndefinedMetricError"}
    for name in removed | unexported:
        assert not hasattr(fmeda_uq, name), name
    for module_name in (m.name for m in pkgutil.iter_modules(fmeda_uq.__path__)):
        module = importlib.import_module(f"fmeda_uq.{module_name}")
        for name in removed:
            assert not hasattr(module, name), f"fmeda_uq.{module_name}.{name}"
    assert not hasattr(_Propagation, "sigma_spfm")
    assert not hasattr(_Propagation, "require_lfm")


def test_propagation_keeps_one_array_per_metric():
    # The (3, n) arrays and the sigmas keyed by mode replaced these.
    names = {f.name for f in dataclasses.fields(_Propagation)}
    gone = {"terms_dc", "terms_lam", "sigma_spfm_full", "sigma_spfm_dc_only",
            "sigma_spfm_lambda_only"}
    assert not names & gone
    assert len(names) < 11


def test_result_has_no_asil_target_field():
    # verdict.target holds the target whenever one applies.
    names = {f.name for f in dataclasses.fields(fmeda_uq.AnalysisResult)}
    assert "asil_target" not in names and "verdict" in names
