"""Command-line interface: parsing, reports, exit codes, stability."""

import json

import pytest

from chio.cli import main, parse_sign_matrix, parse_ternary_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_sign_compact(self):
        matrix = parse_sign_matrix("+-/--")
        assert matrix[(1, 2)] == -1

    def test_sign_json_rows(self):
        matrix = parse_sign_matrix("[[1, -1], [-1, -1]]")
        assert matrix[(2, 2)] == -1

    def test_ternary_dict(self):
        matrix = parse_ternary_matrix('{"dims": [4, 4], "entries": [[1, 1, -1]]}')
        assert matrix.dims == (4, 4) and matrix[(1, 1)] == -1

    def test_ternary_rows_with_n(self):
        matrix = parse_ternary_matrix("[[0, 1], [1, 0]]", n=3)
        assert matrix.dims == (3, 3) and matrix.dom == 4

    def test_ternary_compact_with_gaps(self):
        matrix = parse_ternary_matrix("+-./...", n=4)
        assert matrix.dims == (4, 4) and matrix.dom == 2


class TestCommands:
    def test_pchio_spec_example(self, capsys):
        code, out, _ = run(
            capsys, "pchio", "--n", "4", "--matrix", "[[-1,-1,0],[-1,-1,0],[0,0,0]]"
        )
        assert code == 0
        payload = json.loads(out)
        # dom 9, two components beyond the circuit: exponent 9 + 6 - 3.
        assert payload["p_chio"] == {"log2": -12}
        assert payload["p_lcf"] == {"log2": -13}
        assert payload["ratio_log2"] == 1
        assert payload["isotype"] == "t5"

    def test_condense(self, capsys):
        code, out, _ = run(capsys, "condense", "--matrix", "+-/--")
        assert code == 0
        assert json.loads(out)["entries"] == [[1, 1, -1]]

    def test_condense_abs(self, capsys):
        code, out, _ = run(capsys, "condense", "--matrix", "+-/--", "--abs")
        assert code == 0
        assert json.loads(out)["entries"] == [[1, 1, 1]]

    def test_recipe_agreement_field(self, capsys):
        code, out, _ = run(capsys, "recipe", "--matrix=--./--./...")
        assert code == 0
        payload = json.loads(out)
        assert payload["recipe"] == payload["p_chio"] == {"log2": -7}
        assert payload["agrees"] is True

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "--matrix=--./--./...")
        payload = json.loads(out)
        assert code == 0 and payload["isotype"] == "t1"
        assert payload["betti"] == {"f0": 4, "f1": 4, "beta0": 1, "beta1": 1}

    def test_failures_formula_csv(self, capsys):
        code, out, _ = run(
            capsys, "failures", "--k", "6", "--n", "5", "--formula-only", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["failures"] == "342144"
        assert values["ratio4"] == "768"

    def test_failures_enumerated_matches_formula(self, capsys):
        code, enumerated, _ = run(capsys, "failures", "--k", "4", "--n", "4", "--workers", "1")
        code2, formula, _ = run(capsys, "failures", "--k", "4", "--n", "4", "--formula-only")
        assert code == code2 == 0
        assert json.loads(enumerated) == json.loads(formula)

    @pytest.mark.parametrize("n", ["2", "3"])
    @pytest.mark.parametrize("k", ["4", "5", "6"])
    def test_failures_formula_on_small_grids(self, capsys, k, n):
        code, enumerated, _ = run(capsys, "failures", "--k", k, "--n", n, "--workers", "1")
        code2, formula, _ = run(capsys, "failures", "--k", k, "--n", n, "--formula-only")
        assert code == code2 == 0
        assert json.loads(enumerated) == json.loads(formula)

    def test_switch_orbit(self, capsys):
        code, out, _ = run(capsys, "switch-orbit", "--matrix=--/--")
        payload = json.loads(out)
        assert code == 0
        assert payload["orbit_size"] == 8 and payload["orbit_is_balanced_set"]

    def test_ranks(self, capsys):
        code, out, _ = run(capsys, "ranks", "--n", "3")
        payload = json.loads(out)
        assert code == 0 and payload["checks"]["all_ok"]

    def test_census_small(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "3", "--workers", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["visited"] == 512 and payload["rank_drop_violations"] == 0

    def test_formulas(self, capsys):
        code, out, _ = run(capsys, "formulas", "--n", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["h_counts"]["c6"] == 384
        assert all(r["holds"] for r in payload["linear_relations"])


class TestExitCodes:
    def test_malformed_matrix(self, capsys):
        code, _, err = run(capsys, "pchio", "--matrix", "[[5]]")
        assert code == 2 and "error" in err

    def test_census_budget_needs_big(self, capsys):
        code, _, err = run(capsys, "census", "--n", "5")
        assert code == 2 and "--big" in err

    def test_census_resume_bad_checkpoint(self, capsys, tmp_path):
        from chio.census_oracle import CensusConfig, run_census

        garbage = tmp_path / "garbage.ckpt"
        garbage.write_bytes(b"CHIOCENS\0" + bytes(12))
        # A complete census of the (1,1) = +1 slice, with the aggregates
        # `chio census --n 3` asks for: the CLI runs unfiltered.
        sliced = str(tmp_path / "sliced.ckpt")
        run_census(
            CensusConfig(dims=(3, 3), worker_count=1, checkpoint_path=sliced, filters={(1, 1): 1}),
            aggregates=("rank_pm", "rank_cond", "rank_drop_violations", "edge_pairs"),
        )
        for path in (str(garbage), sliced):
            code, out, err = run(
                capsys, "census", "--n", "3", "--workers", "1", "--checkpoint", path, "--resume"
            )
            assert code == 2 and "error" in err and out == ""

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_out_of_range_k(self, capsys):
        code, _, err = run(capsys, "failures", "--k", "9", "--n", "4", "--formula-only")
        assert code == 2

    def test_failures_bad_n(self, capsys):
        for n in ("-1", "1"):
            for extra in ((), ("--formula-only",)):
                code, out, err = run(capsys, "failures", "--k", "4", "--n", n, *extra)
                assert code == 2 and out == "" and "n must be at least 2" in err

    def test_recipe_rejects_seven_entries(self, capsys):
        code, _, err = run(capsys, "recipe", "--matrix=+++/+++/+..")
        assert code == 2 and "six" in err


class TestStability:
    def test_verify_relations_suite_stable(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "relations")
        code2, out2, _ = run(capsys, "verify", "--suite", "relations")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "PASS" in out1 and "FAIL" not in out1

    def test_failures_bytes_identical_across_workers(self, capsys):
        _, out1, _ = run(capsys, "failures", "--k", "5", "--n", "4", "--workers", "1")
        _, out2, _ = run(capsys, "failures", "--k", "5", "--n", "4", "--workers", "2")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "failures", "--k", "4", "--n", "4", "--formula-only", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["failures"] == 144


class TestWorkers:
    def test_env_override(self, monkeypatch):
        from chio.parallel import resolve_workers

        monkeypatch.setenv("CHIO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(5) == 5
        monkeypatch.delenv("CHIO_WORKERS")
        assert resolve_workers(None) >= 1
