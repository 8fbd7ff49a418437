"""Error-importance ranking: shares, partition of unity, rank stability."""

import pytest

from fmeda_uq import analyze
from fmeda_uq.eii import INPUT_DC, INPUT_LAMBDA
from fmeda_uq.model import table_arrays
from fmeda_uq.uncertainty import _propagate
from conftest import make_table, random_table


def worked_table():
    return make_table([
        dict(lambda_fm=50.0, dc=0.9, sigma_dc=0.02),
        dict(lambda_fm=50.0, dc=0.99, sigma_dc=0.001),
    ])


def test_two_mode_shares():
    entries = analyze(worked_table()).eii_entries
    assert [e.failure_mode_id for e in entries] == ["FM1", "FM2"]
    assert entries[0].percent == pytest.approx(100 * 0.0004 / 0.000401, abs=1e-9)
    assert entries[1].percent == pytest.approx(100 * 1e-6 / 0.000401, abs=1e-9)
    assert entries[0].percent == pytest.approx(99.75, abs=0.01)
    assert entries[1].percent == pytest.approx(0.25, abs=0.01)


def test_single_uncertain_input_gets_everything():
    table = make_table([
        dict(lambda_fm=50.0, dc=0.9, sigma_dc=0.02),
        dict(lambda_fm=50.0, dc=0.99),
    ])
    entries = analyze(table).eii_entries
    assert len(entries) == 1
    assert entries[0].variance_share == pytest.approx(1.0, abs=1e-15)


def test_symmetric_table_splits_evenly():
    table = make_table([
        dict(lambda_fm=30.0, dc=0.8, sigma_dc=0.01),
        dict(lambda_fm=30.0, dc=0.8, sigma_dc=0.01),
    ])
    entries = analyze(table).eii_entries
    assert [e.percent for e in entries] == pytest.approx([50.0, 50.0])
    # Tie broken by table order.
    assert [e.failure_mode_id for e in entries] == ["FM1", "FM2"]


def test_no_uncertainty_gives_empty_list():
    table = make_table([dict(lambda_fm=50.0, dc=0.9)])
    assert analyze(table).eii_entries == ()


def test_raw_eii_uses_first_power_of_sigma():
    table = worked_table()
    res = analyze(table)
    s = res.sigma_spfm_full
    entries = res.eii_entries
    lam_tot = 100.0
    expected_raw = 50.0**2 * 0.02**2 / (lam_tot**2 * s)
    assert entries[0].raw_eii == pytest.approx(expected_raw, rel=1e-12)
    # raw and share differ exactly by the factor sigma (share divides twice)
    assert entries[0].raw_eii / entries[0].variance_share == pytest.approx(s, rel=1e-12)


def test_lambda_side_entries():
    table = make_table([
        dict(lambda_fm=50.0, dc=0.9, sigma_lambda_fm=5.0),
        dict(lambda_fm=50.0, dc=0.99, sigma_dc=0.001),
    ])
    entries = analyze(table).eii_entries
    kinds = {(e.failure_mode_id, e.input) for e in entries}
    assert ("FM1", INPUT_LAMBDA) in kinds
    assert ("FM2", INPUT_DC) in kinds


def test_partition_of_unity(rng):
    for _ in range(50):
        table = random_table(rng)
        entries = analyze(table).eii_entries
        if not entries:
            continue
        assert sum(e.variance_share for e in entries) == pytest.approx(1.0, abs=1e-9)
        assert all(e.variance_share >= 0 for e in entries)


def test_rank_by_raw_equals_rank_by_share(rng):
    for _ in range(50):
        entries = analyze(random_table(rng)).eii_entries
        by_raw = sorted(entries, key=lambda e: -e.raw_eii)
        assert [id(e) for e in by_raw] == [id(e) for e in entries] or \
            [(e.failure_mode_id, e.input) for e in by_raw] == \
            [(e.failure_mode_id, e.input) for e in entries]


def test_removing_an_input_redistributes_proportionally(rng):
    from dataclasses import replace
    from fmeda_uq.model import FmedaTable, Part, Subpart

    table = random_table(rng, n_fm=5, sigma_dc_max=0.05)
    entries = analyze(table).eii_entries
    assert len(entries) >= 3
    victim = entries[0]
    rows = list(table.parts[0].subparts[0].failure_modes)
    field = "sigma_dc" if victim.input == INPUT_DC else "sigma_lambda_fm"
    rows[victim.row_index] = replace(rows[victim.row_index], **{field: 0.0})
    reduced = FmedaTable((Part("PART", (Subpart("SUB", None, None, tuple(rows)),)),))

    before = {(e.failure_mode_id, e.input): e.variance_share for e in entries}
    after = {(e.failure_mode_id, e.input): e.variance_share
             for e in analyze(reduced).eii_entries}
    remaining = 1.0 - victim.variance_share
    for key, share in after.items():
        assert share == pytest.approx(before[key] / remaining, rel=1e-9)


def test_totals_per_failure_mode():
    table = make_table([
        dict(lambda_fm=50.0, dc=0.9, sigma_dc=0.02, sigma_lambda_fm=2.0),
        dict(lambda_fm=50.0, dc=0.99, sigma_dc=0.001),
    ])
    res = analyze(table)
    entries = res.eii_entries
    totals = res.eii_totals
    assert [fm for fm, _ in totals] == ["FM1", "FM2"]
    assert sum(pct for _, pct in totals) == pytest.approx(100.0, abs=1e-9)
    by_fm = dict(totals)
    fm1_parts = [e.percent for e in entries if e.failure_mode_id == "FM1"]
    assert len(fm1_parts) == 2
    assert by_fm["FM1"] == pytest.approx(sum(fm1_parts), abs=1e-12)


def test_worked_totals():
    totals = dict(analyze(worked_table()).eii_totals)
    assert totals["FM1"] == pytest.approx(99.75, abs=0.01)
    assert totals["FM2"] == pytest.approx(0.25, abs=0.01)


THIRD = 100.0 / 3.0


@pytest.mark.parametrize("rows, entries, totals, row_percents", [
    # FM2's term is positive but its share underflows to 0.0: it is still
    # an entry and still has a total.
    ([dict(lambda_fm=50.0, dc=0.9, sigma_dc=10.0),
      dict(lambda_fm=50.0, dc=0.99, sigma_dc=1e-161)],
     [("FM1", INPUT_DC, 100.0), ("FM2", INPUT_DC, 0.0)],
     [("FM1", 100.0), ("FM2", 0.0)],
     [(100.0, 0.0, 100.0), (0.0, 0.0, 0.0)]),
    # FM1's DC and rate terms are equal and tie across rows with FM2's DC
    # term: DC before rate within a row, then table order.
    ([dict(lambda_fm=50.0, dc=0.5, sigma_dc=0.01, sigma_lambda_fm=1.0),
      dict(lambda_fm=50.0, dc=0.9, sigma_dc=0.01)],
     [("FM1", INPUT_DC, THIRD), ("FM1", INPUT_LAMBDA, THIRD), ("FM2", INPUT_DC, THIRD)],
     [("FM1", 2 * THIRD), ("FM2", THIRD)],
     [(THIRD, THIRD, 2 * THIRD), (THIRD, 0.0, THIRD)]),
])
def test_entries_totals_and_row_percents(rows, entries, totals, row_percents):
    res = analyze(make_table(rows))
    assert [(e.failure_mode_id, e.input) for e in res.eii_entries] == \
        [(fm, kind) for fm, kind, _ in entries]
    assert [e.percent for e in res.eii_entries] == pytest.approx(
        [pct for _, _, pct in entries], rel=1e-12, abs=0.0)
    assert [fm for fm, _ in res.eii_totals] == [fm for fm, _ in totals]
    assert [pct for _, pct in res.eii_totals] == pytest.approx(
        [pct for _, pct in totals], rel=1e-12, abs=0.0)
    got_rows = [(r.eii_dc_percent, r.eii_lambda_percent, r.eii_total_percent)
                for r in res.rows]
    for got, want in zip(got_rows, row_percents, strict=True):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # Each total is its row's total, and each row part is its entry's percent.
    rows_by_id = {r.failure_mode_id: r for r in res.rows}
    for fm, pct in res.eii_totals:
        assert pct == rows_by_id[fm].eii_total_percent
    for e in res.eii_entries:
        row = res.rows[e.row_index]
        part = row.eii_dc_percent if e.input == INPUT_DC else row.eii_lambda_percent
        assert part == e.percent


def _loop_reference(table):
    """Entries, totals and row percents, one input at a time in Python."""
    arr = table_arrays(table)
    prop = _propagate(arr)
    total = float(prop.terms_dc.sum() + prop.terms_lam.sum())
    entries, totals, rows = [], [], []
    for i, fm_id in enumerate(arr.ids):
        pcts = {}
        for kind, term in ((INPUT_DC, float(prop.terms_dc[i])),
                           (INPUT_LAMBDA, float(prop.terms_lam[i]))):
            if term > 0.0:
                share = term / total
                pcts[kind] = share * 100.0
                entries.append((fm_id, kind, i, term / prop.sigma_spfm_full, share,
                                share * 100.0))
        dc_pct, lam_pct = pcts.get(INPUT_DC, 0.0), pcts.get(INPUT_LAMBDA, 0.0)
        if pcts:
            totals.append((fm_id, dc_pct + lam_pct))
        rows.append((dc_pct, lam_pct, dc_pct + lam_pct))
    entries.sort(key=lambda e: -e[4])
    return entries, totals, rows


def test_matches_loop_reference(rng):
    tables = [random_table(rng) for _ in range(30)]
    tables.append(make_table([dict(lambda_fm=50.0, dc=0.9, sigma_dc=10.0, sigma_lambda_fm=1.0),
                              dict(lambda_fm=50.0, dc=0.99, sigma_dc=1e-161)]))
    for table in tables:
        res = analyze(table)
        entries = [(e.failure_mode_id, e.input, e.row_index, e.raw_eii, e.variance_share,
                    e.percent) for e in res.eii_entries]
        rows = [(r.eii_dc_percent, r.eii_lambda_percent, r.eii_total_percent)
                for r in res.rows]
        assert (entries, list(res.eii_totals), rows) == _loop_reference(table)
