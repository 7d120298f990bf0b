"""Mutation table: each check of ``chio verify`` can report FAIL.

A check that cannot fail shows nothing.  Each row perturbs one target with
``monkeypatch`` and runs the one check that must then return
``ok: False``: mutation analysis as test adequacy (DeMillo, Lipton and
Sayward, 1978).  A row patches the binding its check reads, and every memo
that could hold a patched value is emptied before and after each row.

The closed forms compute and do not check themselves, so a broken one
reaches the checks instead of raising.  The rows that perturb them
(``cli_fails`` set) also run ``chio verify --suite failures,relations
--workers 1``: it must exit 1 with that many FAIL lines, the row's check
among them, and print no traceback.
"""

from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

from chio import census_oracle, failure_enum, measures, signed_graph, verify
from chio.cli import main
from chio.matrix_core import PartialTernaryMatrix
from chio.measures import DyadicProb
from chio.signed_graph import IsoType

MEMOS = (
    failure_enum._realizations,
    failure_enum._extent_tallies,
    signed_graph.support_cycles,
    measures._domain_facts,
)


class Row(NamedTuple):
    patch: Callable[[pytest.MonkeyPatch], None]
    check: Callable[[], dict]  # the one check that must FAIL
    # FAIL lines of ``chio verify --suite failures,relations``; None runs no CLI.
    cli_fails: int | None = None


def wrap(module, name: str, perturb: Callable) -> Callable[[pytest.MonkeyPatch], None]:
    """A patch of ``module.name`` that passes the real function's result,
    and its arguments, through ``perturb``."""
    real = getattr(module, name)
    return lambda mp: mp.setattr(
        module, name, lambda *args, **kwargs: perturb(real(*args, **kwargs), *args, **kwargs)
    )


def realization_entry(k: int, tag: IsoType) -> Callable[[pytest.MonkeyPatch], None]:
    """One count of the k-entry realization table, 16 too large; the
    cached tables are copied, not changed."""

    def perturb(tables, n):
        tables = {key: dict(table) for key, table in tables.items()}
        tables[k][tag] += 16
        return tables

    return wrap(failure_enum, "_realizations", perturb)


def h_c6_times_7_6(counts, n):
    h_c6, *rest = counts
    return (h_c6 * 7 // 6, *rest)


def halved(prob, event):
    return DyadicProb.pow_half(prob.exponent + 1)


def recipe_zero_on_four(prob, matrix):
    return DyadicProb.zero() if len(matrix.entries) == 4 else prob


def rank_capped(result, entries, det=False):
    return result if det else np.minimum(result, 2)


def flip_first(condensate, matrix):
    entries = dict(condensate.entries)
    if (1, 1) in entries:
        entries[1, 1] = -entries[1, 1]
    return PartialTernaryMatrix(condensate.dims, entries)


def one_more_rank_zero(out, *args):
    if "rank_pm" in out:
        out["rank_pm"][0] += 1
    return out


def f6_constant_plus_a_third(mp):
    coeffs = verify._POLY_F6
    mp.setattr(verify, "_POLY_F6", (*coeffs[:-1], coeffs[-1] + Fraction(1, 3)))


ROWS = {
    # Closed forms: each was a raise inside failure_enum.
    "h_counts h_c6 x 7/6": Row(
        wrap(verify, "h_counts", h_c6_times_7_6), verify.closed_form_check, 1
    ),
    "realizations k=4 T1": Row(
        realization_entry(4, IsoType.T1), lambda: verify.failure_agreement(4, 4), 10
    ),
    "realizations k=5 T2": Row(realization_entry(5, IsoType.T2), verify.closed_form_check, 12),
    "realizations k=6 T5": Row(realization_entry(6, IsoType.T5), verify.closed_form_check, 11),
    "edges and rank T4": Row(
        lambda mp: mp.setitem(failure_enum._EDGES_AND_RANK, IsoType.T4, (6, 1)),
        verify.closed_form_check,
        10,
    ),
    "polynomial constant + 1/3": Row(f6_constant_plus_a_third, verify.closed_form_check, 1),
    "xi + 16": Row(wrap(failure_enum, "xi", lambda x, n: x + 16), verify.closed_form_check, 29),
    "circuit_count length 6 + 1": Row(
        wrap(failure_enum, "circuit_count", lambda c, length, n: c + (length == 6)),
        verify.closed_form_check,
        10,
    ),
    # The closed forms read only 6-circuits, so this breaks the bound alone.
    "circuit_count length 4 = 0": Row(
        wrap(failure_enum, "circuit_count", lambda c, length, n: 0 if length == 4 else c),
        verify.density_bound_check,
        1,
    ),
    # Measures, census, balance and switching.
    "p_lcf halved": Row(wrap(verify, "p_lcf", halved), verify.averaging_check),
    "recipe_p_chio zero on 4 entries": Row(
        wrap(verify, "recipe_p_chio", recipe_zero_on_four),
        lambda: verify.recipe_equivalence_scan(3, workers=1),
    ),
    # beta0 + 1 in the fibre formula doubles every nonzero fibre.
    "fibre_cardinality beta0 + 1": Row(
        wrap(verify, "fibre_cardinality", lambda count, event: 2 * count),
        lambda: verify.census_measure_agreement(3, verify.census_preimage_report(3, workers=1)),
    ),
    "_rank_soa capped at 2": Row(
        wrap(census_oracle, "_rank_soa", rank_capped),
        lambda: list(verify.rank_drop_pointwise(workers=1))[-1],  # the 4x4 census
    ),
    "chio_condense flips (1,1)": Row(
        wrap(verify, "chio_condense", flip_first), verify.j_independence_check
    ),
    "rank_pm aggregate one rank-0 more per tile": Row(
        wrap(census_oracle, "_tile_aggregates", one_more_rank_zero),
        lambda: verify.singular_consistency(3, workers=1),
    ),
    # Every signing balanced: p_chio no longer vanishes off the balanced ones.
    "support_cycles without masks": Row(
        wrap(signed_graph, "support_cycles", lambda cycles, support: (cycles[0], [])),
        verify.j_independence_check,
    ),
    # Every full signing counted: 16 maximizers at n = 3, not 8.
    "support_cycles without masks, worst ratio": Row(
        wrap(signed_graph, "support_cycles", lambda cycles, support: (cycles[0], [])),
        lambda: verify.worst_ratio_scan(3),
    ),
    # Rank one too high: every nonzero p_chio halves, so no event's
    # preimage count is p_chio(B) 2^|J~|.
    "balance_rank rank + 1": Row(
        wrap(signed_graph, "balance_rank", lambda pair, entries: (pair[0], pair[1] + 1)),
        verify.j_independence_check,
    ),
    "orbit drops a signing": Row(
        wrap(verify, "orbit", lambda signings, graph: set(sorted(signings)[1:])),
        verify.orbit_transitivity_check,
    ),
}


@pytest.fixture(autouse=True)
def fresh_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


@pytest.mark.parametrize("name", list(ROWS))
def test_the_check_reports_fail(capsys, monkeypatch, name):
    row = ROWS[name]
    row.patch(monkeypatch)
    result = row.check()
    assert result["ok"] is False
    if row.cli_fails is None:
        return
    code = main(["verify", "--suite", "failures,relations", "--workers", "1"])
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert code == 1 and len(failed) == row.cli_fails
    assert any(line.endswith(f"] {result['check']}") for line in failed)
    assert "Traceback" not in out + err
