"""Acceptance criteria, one test per criterion, exact tolerances.

Every check is an integer identity (zero tolerance); the only stated
tolerances are wall-clock bounds on two of the exhaustive runs.  Run with
``pytest tests/test_acceptance.py -v`` for one line per criterion.
"""

import json
import time

import pytest

from chio.failure_enum import count_failures, failure_count_formula, realization_table
from chio.measures import DyadicProb, Event, p_chio_averaged, p_lcf, p_chio_abs
from chio.matrix_core import PartialTernaryMatrix
from chio.census_oracle import CensusConfig, condensate_code, rank_census, run_census
from chio.verify import (
    averaging_census_check,
    averaging_check,
    census_determinism,
    census_measure_agreement,
    census_preimage_report,
    chio_identity_exhaustive,
    h_identity_check,
    linear_relations_check,
    orbit_transitivity_check,
    rank_drop_pointwise,
    rank_invariance_all_patterns,
    recipe_equivalence_scan,
    worst_ratio_scan,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def enumerated():
    """Exhaustive failure censuses shared by criteria 3 and 4."""
    reports = {}
    for n in (4, 5, 6):
        for k in (4, 5, 6):
            reports[(k, n)] = count_failures(k, n)
    return reports


def test_criterion_01_chio_identity_exhaustive():
    check = chio_identity_exhaustive(4)
    ok = check["ok"] and check["seconds"] < 5.0
    report(1, ok, f"determinant identity on 2^16 matrices in {check['seconds']}s (limit 5s)")


def test_criterion_02_measure_oracle():
    start = time.time()
    ok3 = census_measure_agreement(3, census_preimage_report(3, workers=4))["ok"]
    ok4 = census_measure_agreement(4, census_preimage_report(4, workers=4))["ok"]
    elapsed = time.time() - start
    report(
        2,
        ok3 and ok4 and elapsed < 30.0,
        f"census preimages equal fibre formula at n=3,4 in {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_03_failure_counts(enumerated):
    ok = True
    for (k, n), enum in sorted(enumerated.items()):
        form = failure_count_formula(k, n)
        ok = ok and (
            enum.failure_count == form.failure_count
            and enum.by_ratio == form.by_ratio
            and enum.by_value == form.by_value
            and enum.by_isotype == form.by_isotype
        )
    ok = ok and h_identity_check(6)["ok"]
    report(
        3,
        ok,
        "enumerated failure counts equal closed forms for k,n in {4,5,6}^2 "
        "including ratio and value splits",
    )


def test_criterion_04_realization_tables_and_relations(enumerated):
    ok = True
    for n in (4, 5):
        for k in (4, 5, 6):
            table = {t: v for t, v in realization_table(k, n).items() if v}
            ok = ok and table == enumerated[(k, n)].by_isotype
    relations = linear_relations_check()
    ok = ok and relations["ok"]
    report(
        4,
        ok,
        "realization tables match enumeration at n=4,5; linear relations hold "
        "symbolically (nine points) and at n=4..8",
    )


def test_criterion_05_rank_identities():
    drops = rank_drop_pointwise()
    ok = all(c["ok"] for c in drops)
    for s, t in ((3, 3), (4, 4)):
        ok = ok and rank_census(s, t).verify()["all_ok"]
    report(
        5,
        ok,
        "rank drop pointwise for all dims <= 4; level-set shift and "
        "sign-forgetting identities exact at 3x3 and 4x4",
    )


def test_criterion_06_recipe_equivalence():
    results = [recipe_equivalence_scan(4), recipe_equivalence_scan(5)]
    ok = all(r["ok"] for r in results)
    events = sum(r["events"] for r in results)
    report(6, ok, f"recipe equals measure on all {events} events with dom <= 6 at n=4,5")


def test_criterion_07_averaging_and_sign_forgetting():
    checks = [averaging_check(), averaging_census_check(3, census_preimage_report(3))]
    ok = all(c["ok"] for c in checks)
    report(
        7,
        ok,
        "averaged measure equals lazy coin flip and |.|-measure is uniform, "
        "exhaustively at n=3 against census counts",
    )


def test_criterion_08_switching():
    orbits = orbit_transitivity_check()
    ranks = rank_invariance_all_patterns()
    report(
        8,
        orbits["ok"] and ranks["ok"],
        f"orbits equal balanced signings on {orbits['graphs']} connected graphs; "
        "rank invariance on all 512 patterns",
    )


def test_criterion_09_worst_case_ratio():
    ok = worst_ratio_scan(3)["ok"] and worst_ratio_scan(4)["ok"]
    report(
        9,
        ok,
        "maximum measure ratio is 2^((n-2)^2) at n=3,4, attained only on the "
        "complete bipartite graph",
    )


def test_criterion_10_determinism():
    ok = census_determinism((3, 3))["ok"] and census_determinism((4, 4))["ok"]
    reports = [
        json.dumps(count_failures(5, 4, workers=w).to_json_dict(), sort_keys=True)
        for w in (1, 2, 8)
    ]
    ok = ok and reports[0] == reports[1] == reports[2]
    report(10, ok, "census and failure aggregates bit-identical for workers 1, 2, 8")


@pytest.mark.slow
def test_averaged_measure_full_domain_sweep_n4():
    """Averaged measure equals the coin flip value for every dom <= 6 event."""
    from itertools import combinations, product

    positions = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    for k in range(7):
        for chosen in combinations(positions, k):
            for values in product((-1, 0, 1), repeat=k):
                matrix = PartialTernaryMatrix((4, 4), dict(zip(chosen, values)))
                assert p_chio_averaged(matrix) == p_lcf(Event(matrix))


@pytest.mark.slow
def test_sign_forgetting_preimages_n4():
    """|.|-condensation preimage counts are uniform at n=4."""
    res = run_census(CensusConfig(dims=(4, 4)), aggregates=("cond_counts",))
    counts = dict(zip(res.cond_codes.tolist(), res.cond_counts.tolist()))
    positions = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    from itertools import product

    for pattern_values in product((0, 1), repeat=9):
        pattern = dict(zip(positions, pattern_values))
        support = [p for p, v in pattern.items() if v]
        total = 0
        for signs in product((-1, 1), repeat=len(support)):
            entries = dict(pattern)
            for pos, sign in zip(support, signs):
                entries[pos] = sign
            total += counts.get(condensate_code(PartialTernaryMatrix((4, 4), entries)), 0)
        assert total == 1 << (16 - 9)
        assert p_chio_abs(PartialTernaryMatrix((4, 4), pattern)) == DyadicProb.pow_half(9)
