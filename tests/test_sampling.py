"""Campaign sizing, the margin-to-sigma bridge, and table enrichment."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fmeda_uq import (
    DcSource,
    margin_to_sigma,
    sample_size,
)
from fmeda_uq.model import iter_rows, table_arrays
from conftest import make_table

# Exact rational cut-offs matching the published 5-digit table.
_EXACT_T = {0.90: Fraction(16449, 10000), 0.95: Fraction(196, 100),
            0.99: Fraction(25758, 10000)}


def exact_sample_size(population: int, margin: Fraction, confidence: float,
                      proportion: Fraction = Fraction(1, 2)) -> int:
    """Independent rational-arithmetic evaluation (no floating point)."""
    t = _EXACT_T[confidence]
    denom = 1 + margin**2 * (population - 1) / (t**2 * proportion * (1 - proportion))
    return min(math.ceil(population / denom), population)


def test_million_population_one_percent():
    plan = sample_size(10**6, 0.01, 0.95)
    assert plan.sample_size == 9513
    assert plan.sample_size == exact_sample_size(10**6, Fraction(1, 100), 0.95)


def test_thousand_population_five_percent():
    plan = sample_size(1000, 0.05, 0.95)
    assert plan.sample_size == 278
    assert plan.sample_size == exact_sample_size(1000, Fraction(5, 100), 0.95)


def test_capped_at_population():
    plan = sample_size(10, 0.5, 0.90)
    assert 1 <= plan.sample_size <= 10


def test_infinite_population_limit():
    # t^2 p (1-p) / e^2 = 0.9604 / 1e-4 = 9604 exactly for 95% / 1%.
    limit = math.ceil(_EXACT_T[0.95]**2 * Fraction(1, 4) / Fraction(1, 100)**2)
    assert limit == 9604
    for population in (10**9, 10**10, 10**12):
        n = sample_size(population, 0.01, 0.95).sample_size
        assert abs(n - limit) <= 1
    # approached from below for finite populations
    assert sample_size(10**7, 0.01, 0.95).sample_size <= limit


def test_monotone_in_margin_and_population():
    margins = [0.005, 0.01, 0.02, 0.05, 0.1]
    pops = [10**k for k in range(2, 8)]
    for pop in pops:
        sizes = [sample_size(pop, e, 0.95).sample_size for e in margins]
        assert sizes == sorted(sizes, reverse=True)
    for e in margins:
        sizes = [sample_size(pop, e, 0.95).sample_size for pop in pops]
        assert sizes == sorted(sizes)


def test_monotone_in_confidence():
    for pop in (1000, 10**6):
        n90 = sample_size(pop, 0.01, 0.90).sample_size
        n95 = sample_size(pop, 0.01, 0.95).sample_size
        n99 = sample_size(pop, 0.01, 0.99).sample_size
        assert n90 <= n95 <= n99


def test_half_proportion_is_conservative():
    grid = [i / 100 for i in range(1, 100)]
    n_half = sample_size(10**5, 0.01, 0.95, 0.5).sample_size
    assert all(
        sample_size(10**5, 0.01, 0.95, p).sample_size <= n_half for p in grid
    )


@given(
    population=st.integers(min_value=1, max_value=10**9),
    margin=st.floats(min_value=0.001, max_value=0.5),
    confidence=st.sampled_from([0.90, 0.95, 0.99]),
)
def test_sample_size_always_in_range(population, margin, confidence):
    n = sample_size(population, margin, confidence).sample_size
    assert 1 <= n <= population


@pytest.mark.parametrize("bad_kwargs", [
    dict(population=0, margin=0.01, confidence_level=0.95),
    dict(population=10.5, margin=0.01, confidence_level=0.95),
    dict(population=100, margin=0.0, confidence_level=0.95),
    dict(population=100, margin=1.5, confidence_level=0.95),
    dict(population=100, margin=0.01, confidence_level=0.85),
    dict(population=100, margin=0.01, confidence_level=0.95, proportion=0.0),
])
def test_invalid_parameters_rejected(bad_kwargs):
    with pytest.raises(ValueError):
        sample_size(**bad_kwargs)


def test_margin_to_sigma_values():
    assert margin_to_sigma(0.01, 0.95) == pytest.approx(0.01 / 1.96, rel=1e-12)
    assert margin_to_sigma(0.01, 0.95) == pytest.approx(0.0051020, abs=1e-7)
    assert margin_to_sigma(0.01, 0.99) == pytest.approx(0.0038823, abs=1e-7)
    assert margin_to_sigma(0.0, 0.95) == 0.0


def test_margin_to_sigma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        margin_to_sigma(1.0, 0.95)
    with pytest.raises(ValueError):
        margin_to_sigma(0.01, 0.50)


def test_table_arrays_fills_faultsim_sigma():
    table = make_table([
        dict(lambda_fm=10.0, dc=0.9,
             dc_source=DcSource.fault_simulation(0.01, 0.95)),
        dict(lambda_fm=10.0, dc=0.8, sigma_dc=0.02,
             dc_source=DcSource.fault_simulation(0.01, 0.95)),
        dict(lambda_fm=10.0, dc=0.7, sigma_dc=0.0),
    ])
    sigma_dc = table_arrays(table).sigma_dc
    assert sigma_dc[0] == pytest.approx(0.01 / 1.96, rel=1e-12)
    assert sigma_dc[1] == 0.02               # explicit value wins
    assert sigma_dc[2] == 0.0                # expert row untouched
    # original table untouched (immutability)
    assert [r.sigma_dc for _, _, r in iter_rows(table)] == [0.0, 0.02, 0.0]
