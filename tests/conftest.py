"""Shared table builders: quick literal tables and a seeded random factory."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import settings

from fmeda_uq import DcSource, FailureModeRow, FmedaTable, Part, Subpart

# Tests that drive the CLI with generated inputs run under this profile:
# the same examples on every run, and no per-example deadline, since one
# example may parse, validate and sample.  Each test bounds max_examples.
settings.register_profile("fuzz", derandomize=True, deadline=None)


def strict_json(text: str):
    """json.loads that rejects the bare NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")
    return json.loads(text, parse_constant=reject)


def make_table(rows, *, part="CPU", subpart="EXEC", lambda_subpart=None,
               fmd_mode=None, asil_target=None):
    """Build a one-part one-subpart table; rows are FailureModeRow kwargs.

    Row ids default to FM1..FMn.
    """
    fms = []
    for i, fields in enumerate(rows, start=1):
        kwargs = dict(fields)
        kwargs.setdefault("id", f"FM{i}")
        fms.append(FailureModeRow(**kwargs))
    sub = Subpart(subpart, lambda_subpart, fmd_mode, tuple(fms))
    return FmedaTable((Part(part, (sub,)),), asil_target)


def two_fm_table(*, latent=True):
    """The worked two-mode example used across the suite.

    lambda 50/50 FIT, DC 0.90/0.99 with sigma_DC 0.02/0.001:
    SPFM = 0.945, sigma_SPFM = sqrt(1.0025)/100 = 0.010012492...
    With latent coverage 0.6/0.8: LFM = 1 - 27.9/94.5 = 0.704761904...
    """
    rows = [
        dict(lambda_fm=50.0, dc=0.90, sigma_dc=0.02),
        dict(lambda_fm=50.0, dc=0.99, sigma_dc=0.001),
    ]
    if latent:
        rows[0]["dc_latent"] = 0.6
        rows[1]["dc_latent"] = 0.8
    return make_table(rows)


def random_table(
    rng: np.random.Generator,
    *,
    n_fm: int | None = None,
    n_range=(2, 50),
    lam_range=(0.1, 500.0),
    sigma_dc_max=0.05,
    sigma_lam_frac_max=0.1,
    dc_range=(0.0, 1.0),
    dc_latent_range=(0.0, 1.0),
    sigma_dc_latent_max=0.0,
    away_from_bounds=False,
    stable_digits: int | None = None,
) -> FmedaTable:
    """Random single-subpart table with controllable uncertainty regime.

    away_from_bounds keeps every uncertain input at least 4 sigma from its
    physical boundary (the regime where normal draws rarely truncate).
    stable_digits rounds all values to that many significant digits so the
    table survives 12-significant-digit serialization bit-exactly.
    """
    n = n_fm if n_fm is not None else int(rng.integers(n_range[0], n_range[1] + 1))
    lam = rng.uniform(*lam_range, size=n)
    sigma_dc = rng.uniform(0.0, sigma_dc_max, size=n)
    sigma_lam = rng.uniform(0.0, sigma_lam_frac_max, size=n) * lam
    sigma_lat = rng.uniform(0.0, sigma_dc_latent_max, size=n)

    def bounded(lo_hi, sigma):
        lo = np.maximum(lo_hi[0], 4.0 * sigma)
        hi = np.minimum(lo_hi[1], 1.0 - 4.0 * sigma)
        return lo + (hi - lo) * rng.random(n)

    if away_from_bounds:
        dc = bounded(dc_range, sigma_dc)
        dc_lat = bounded(dc_latent_range, sigma_lat)
        lam = np.maximum(lam, 5.0 * sigma_lam)
    else:
        dc = rng.uniform(*dc_range, size=n)
        dc_lat = rng.uniform(*dc_latent_range, size=n)

    def num(x: float) -> float:
        if stable_digits is None:
            return float(x)
        return float(f"{float(x):.{stable_digits}g}")

    rows = []
    for i in range(n):
        rows.append(FailureModeRow(
            id=f"FM{i + 1}",
            lambda_fm=num(lam[i]),
            sigma_lambda_fm=num(sigma_lam[i]),
            dc=num(dc[i]),
            sigma_dc=num(sigma_dc[i]),
            dc_latent=num(dc_lat[i]),
            sigma_dc_latent=num(sigma_lat[i]),
        ))
    sub = Subpart("SUB", None, None, tuple(rows))
    return FmedaTable((Part("PART", (sub,)),))


def fixture_corpus() -> list[tuple[str, FmedaTable, bool]]:
    """(name, table, csv_expressible) triples; >= 20 tables."""
    rng = np.random.default_rng(808)
    corpus = []
    for i in range(20):
        corpus.append((f"random_{i}",
                       random_table(rng, n_range=(2, 12),
                                    sigma_dc_latent_max=0.02, stable_digits=9),
                       True))
    corpus.append((
        "distribution",
        make_table(
            [dict(fmd_fraction=0.25, sigma_fmd=0.01, dc=0.9, sigma_dc=0.02),
             dict(fmd_fraction=0.75, sigma_fmd=0.02, dc=0.8, dc_latent=0.5)],
            lambda_subpart=200.0),
        True))
    corpus.append((
        "faultsim",
        make_table([dict(lambda_fm=10.0, dc=0.9,
                         dc_source=DcSource.fault_simulation(0.01, 0.95),
                         safety_mechanisms=("ECC",))]),
        True))
    corpus.append((
        "multi_part",
        FmedaTable((
            Part("CPU", (
                Subpart("EXEC", 60.0, None, (
                    make_table([dict(lambda_fm=60.0, dc=0.9)])
                    .parts[0].subparts[0].failure_modes)),
            )),
            Part("MEM", (
                Subpart("ARRAY", None, None, (
                    make_table([dict(id="M1", lambda_fm=40.0, dc=0.7,
                                     dc_latent=0.4)])
                    .parts[0].subparts[0].failure_modes)),
            )),
        )),
        True))
    corpus.append((
        "asil_target",
        make_table([dict(lambda_fm=10.0, dc=0.9)], asil_target="C"),
        False))  # the flat CSV layout has no ASIL field
    return corpus


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
