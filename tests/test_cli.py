"""Command-line interface: parsing, reports, exit codes, stability."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chio
from chio.cli import build_parser, main, parse_sign_matrix, parse_ternary_matrix


# The stdout of classify, switch-orbit, pchio and recipe on each matrix, as
# the first 16 hex digits of its SHA-256, so that any change to the bytes
# of these reports shows; None where the recipe refuses a matrix of more
# than six entries (exit 2, no stdout).
# Among them: the empty matrix, an unbalanced 4-circuit (++/+-) and two
# full 4 x 4 grids.
MATRIX_COMMANDS = ("classify", "switch-orbit", "pchio", "recipe")
PINNED_REPORTS = {
    '{"dims": [3, 3], "entries": []}': (
        "6872820dcd7fe876", "38cfc26106efb4db", "dcab4bd61be3cc3b", "87e7315e4b8b2bd4",
    ),
    "++/+-": ("9fc6cab737b7107c", "45a965983e0c2f8c", "9f9e99eef33aadd4", "e997e460efc4749b"),
    "--/--": ("157c1a6ffeafc8d2", "54875d9938c62a5a", "7cd3a1c68c3a29ce", "dd5f3b77cbaaa6b8"),
    "+0/0-": ("6d25a0896552e4d2", "4eb968b3e57bf35b", "f63adbe68616f86a", "bf8a3f9ac3d2ce69"),
    "+./.-": ("6d25a0896552e4d2", "4eb968b3e57bf35b", "2035eb559e9f06a8", "278200ebf26c8c56"),
    "+++/+-+": ("655773f51eef1646", "3b2d39a90b1c3d78", "c850c20505243b83", "72691a7af82b7fad"),
    "++./.++/+.+": ("c5a9c00a4e7e6453", "1393daf8b58459a8", "543bc3a2ce1fe94d", "80e5ff47ae18baf4"),
    "++0/+-+/0++": ("8a6d0dda5a86eca8", "2d688c6fa43b71d1", "5ff3587b8ed5712e", None),
    "+.+/..-/+.+": ("bf832d6ccaeff51d", "99abef15e0361d84", "8b94564bda45086e", "27c8f4a7f9d0ea6b"),
    "000/000/000": ("efbcbd6b2b52ab1c", "38cfc26106efb4db", "3c4e3bd6b547522e", None),
    "+-+-/-+.+": ("c8d719c62afc35e9", "2195ee596b8da5f9", "e08f47a0b0afbe69", None),
    "-.-/.++/+..": ("327cd86c2cb0a0a0", "b0e6005c03935c5e", "91bb6f9b1dfb8b6f", "52626dd087331921"),
    "++++/+-+-/++--/+--+": ("e998d64eb629a964", "78cad2ffda8fffab", "54a129591b39b61b", None),
    "-+-+/+-+-/-+-+/+-+-": ("c9ffd8f87ad440f7", "66eaa25fdd43464c", "ccb4f669c4c02bac", None),
}


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
        code, enumerated, _ = run(capsys, "failures", "--k", "4", "--n", "4")
        code2, formula, _ = run(capsys, "failures", "--k", "4", "--n", "4", "--formula-only")
        assert code == code2 == 0
        assert json.loads(enumerated) == json.loads(formula)

    @pytest.mark.parametrize("n", ["2", "3"])
    @pytest.mark.parametrize("k", ["4", "5", "6"])
    def test_failures_formula_on_small_grids(self, capsys, k, n):
        code, enumerated, _ = run(capsys, "failures", "--k", k, "--n", n)
        code2, formula, _ = run(capsys, "failures", "--k", k, "--n", n, "--formula-only")
        assert code == code2 == 0
        assert json.loads(enumerated) == json.loads(formula)

    def test_switch_orbit(self, capsys):
        code, out, _ = run(capsys, "switch-orbit", "--matrix=--/--")
        payload = json.loads(out)
        assert code == 0
        assert payload["orbit_size"] == 8 and payload["orbit_is_balanced_set"]

    def test_switch_orbit_switches_only_the_graph(self, capsys):
        # One edge on a 30 x 30 grid: 4 switchings act, not 2^58.
        matrix = '{"dims": [30, 30], "entries": [[1, 1, 1]]}'
        code, out, _ = run(capsys, "switch-orbit", "--matrix", matrix)
        payload = json.loads(out)
        assert code == 0 and payload["orbit_size"] == 2 and payload["orbit"] == [[-1], [1]]

    def test_switch_orbit_refuses_an_orbit_past_its_limit(self, capsys):
        # All-plus k x k: rank f0 - beta0 = 2k - 1, so 8 x 8 lists 2^15
        # signings and 9 x 9, at 2^17, is refused before any orbit work.
        code, out, _ = run(capsys, "switch-orbit", "--matrix", "/".join(["+" * 8] * 8))
        assert code == 0 and json.loads(out)["orbit_size"] == 32768
        code, out, err = run(capsys, "switch-orbit", "--matrix", "/".join(["+" * 9] * 9))
        assert code == 2 and out == "" and "2^17" in err and "Traceback" not in err

    def test_ranks(self, capsys):
        code, out, _ = run(capsys, "ranks", "--n", "3")
        payload = json.loads(out)
        assert code == 0 and payload["checks"]["all_ok"]

    def test_census_small(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "3", "--workers", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["visited"] == 512 and payload["rank_drop_violations"] == 0
        # Condensate edges: 256 matrices put an edge at each position, 128 at each pair.
        pairs = [[256 if i == j else 128 for j in range(4)] for i in range(4)]
        assert payload == {
            "dims": [3, 3],
            "visited": 512,
            "rank_pm": [0, 32, 288, 192],
            "rank_cond": [32, 288, 192],
            "rank_drop_violations": 0,
            "edge_pairs": pairs,
        }

    def test_ranks_rectangular_payload(self, capsys):
        code, out, _ = run(capsys, "ranks", "--s", "3", "--t", "4", "--workers", "1")
        assert code == 0
        counts = {"pm": [0, 64, 1344, 2688], "cond": [64, 1344, 2688], "binary": [1, 21, 42]}
        shift = [
            {"r": r, "pm": counts["pm"][r], "cond_shifted": counts["cond"][r - 1], "equal": True}
            for r in (1, 2, 3)
        ]
        # Each {0,1} 2x3 pattern has 2^(12 - 6) sign matrices over it.
        forget = [
            {"r": r, "cond": counts["cond"][r], "binary_scaled": counts["binary"][r] * 64,
             "equal": True}
            for r in (0, 1, 2)
        ]
        assert json.loads(out) == {
            "dims": [3, 4],
            "rank_pm": counts["pm"],
            "rank_condensate": counts["cond"],
            "rank_binary": counts["binary"],
            "checks": {
                "all_ok": True,
                "pm_total_ok": True,
                "binary_total_ok": True,
                "condensate_total_ok": True,
                "rank_shift": shift,
                "sign_forgetting": forget,
            },
        }

    def test_formulas(self, capsys):
        code, out, _ = run(capsys, "formulas", "--n", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["h_counts"]["c6"] == 384
        assert all(r["holds"] for r in payload["linear_relations"])

    def test_formulas_smallest_grid(self, capsys):
        # At n = 3 the grid has four entries: no k = 5, 6 specification
        # exists, so those counts and bounds are zero.
        code, out, _ = run(capsys, "formulas", "--n", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["density_bounds"]["4"] == {"count": 16, "bound": 16}
        assert payload["density_bounds"]["6"] == {"count": 0, "bound": 0}


class TestExitCodes:
    def test_malformed_matrix(self, capsys):
        code, _, err = run(capsys, "pchio", "--matrix", "[[5]]")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("matrix", ["[1,2]", "[[1,2],[1,1]]", "[[1,-1],[1", '{"rows": 1}'])
    def test_malformed_sign_matrix(self, capsys, matrix):
        code, out, err = run(capsys, "condense", "--matrix", matrix)
        assert code == 2 and out == "" and "error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, matrix",
        [
            ("pchio", '{"dims":[3.5,3],"entries":[[1,1,1]]}'),
            ("pchio", '{"dims":[true,3],"entries":[]}'),
            ("pchio", '[[true]]'),
            ("pchio", '[[1.0,0],[0,-1]]'),
            ("pchio", '[[null,1],[1,false]]'),
            ("pchio", '{"dims":[3,3],"entries":[[1.0,1,1]]}'),
            ("pchio", '{"dims":[3,3],"entries":[[1,1,1.0]]}'),
            ("pchio", '{"dims":[4,4],"entries":[[1,1,1],[1,1,-1]]}'),
            ("classify", '{"dims":[4,4],"entries":[[1,1,1],[1,1,1]]}'),
            ("condense", '[[true,1],[1,1]]'),
            ("condense", '[[1,1],[1,1.0]]'),
        ],
    )
    def test_json_numbers_must_be_integers_and_positions_unique(self, capsys, command, matrix):
        code, out, err = run(capsys, command, "--matrix", matrix)
        assert code == 2 and out == "" and "error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("pchio", "--matrix", "+", "--n", "0"),
            ("census", "--s", "3", "--t", "0", "--n", "3", "--workers", "1"),
            ("census", "--n", "0", "--workers", "1"),
            ("ranks", "--s", "0", "--n", "3", "--workers", "1"),
            ("ranks", "--s", "3", "--t", "0", "--workers", "1"),
        ],
    )
    def test_zero_size_is_refused(self, capsys, argv):
        # A size of 0 is a size, not a missing flag: it must reach validation.
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and ">= 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("condense", "--matrix", "+-/--"),
            ("pchio", "--matrix=--./--./..."),
            ("recipe", "--matrix=--./--./..."),
            ("classify", "--matrix=--./--./..."),
            ("formulas", "--n", "4"),
            ("switch-orbit", "--matrix=--/--"),
            ("failures", "--k", "4", "--n", "4"),
        ],
    )
    def test_commands_without_a_pool_refuse_workers(self, capsys, argv):
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--workers", "1")
        assert code == 2 and out == "" and "--workers" in err

    @pytest.mark.parametrize("n", ["3", "4", "5", "6", "7"])
    def test_verify_n_option_is_gone(self, capsys, n):
        # --big is the one switch for the n = 5 checks.
        code, out, err = run(capsys, "verify", "--suite", "relations", "--n", n)
        assert code == 2 and out == "" and "unrecognized arguments: --n" in err

    def test_option_sets_are_pinned(self):
        # An option added or dropped must be added or dropped here too.
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        # --format only where a command has a second format.
        report = {"--format", "--out"}
        matrix = {"--out", "--matrix", "--n"}
        dims = report | {"--n", "--s", "--t", "--workers"}
        assert options == {
            "condense": {"--out", "--matrix", "--abs"},
            "pchio": matrix,
            "recipe": matrix,
            "classify": matrix,
            "failures": report | {"--k", "--n", "--formula-only"},
            "formulas": {"--out", "--n"},
            "census": dims | {"--checkpoint", "--resume"},
            "ranks": dims,
            "switch-orbit": {"--out", "--matrix"},
            "verify": report | {"--suite", "--big", "--workers", "--timings"},
        }
        assert sum(map(len, options.values())) == 41

    @pytest.mark.parametrize(
        "argv",
        [
            ("condense", "--matrix", "+-/--", "--format", "json"),
            ("pchio", "--matrix=--./--./...", "--format", "json"),
            ("recipe", "--matrix=--./--./...", "--format", "json"),
            ("classify", "--matrix=--./--./...", "--format", "json"),
            ("formulas", "--n", "4", "--format", "json"),
            ("switch-orbit", "--matrix=--/--", "--format", "json"),
            ("condense", "--matrix", "+-/--", "--n", "3"),
            ("switch-orbit", "--matrix=--/--", "--n", "4"),
        ],
    )
    def test_options_that_choose_nothing_are_gone(self, capsys, argv):
        assert run(capsys, *argv[:-2])[0] == 0
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"unrecognized arguments: {argv[-2]}" in err

    def test_every_format_choice_writes_a_report(self, capsys, tmp_path):
        # Walks the parser, so a format added without a writer fails here.
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        argv = {
            "failures": ("--k", "4", "--n", "4"),
            "census": ("--n", "3", "--workers", "1"),
            "ranks": ("--n", "3", "--workers", "1"),
            "verify": ("--suite", "relations", "--workers", "1"),
        }
        formats = {
            name: action.choices
            for name, p in sub.choices.items()
            for action in p._actions
            if "--format" in action.option_strings
        }
        assert formats.keys() == argv.keys()
        for name, choices in formats.items():
            outputs = set()
            for fmt in choices:
                code, out, err = run(capsys, name, *argv[name], "--format", fmt)
                assert code == 0 and out and err == ""
                outputs.add(out)
                target = tmp_path / f"{name}.{fmt}"
                code, quiet, _ = run(
                    capsys, name, *argv[name], "--format", fmt, "--out", str(target)
                )
                assert code == 0 and quiet == "" and target.read_bytes() == out.encode()
            # Each choice is a form of its own.
            assert len(outputs) == len(choices)

    def test_dims_need_both_sizes(self, capsys):
        code, out, err = run(capsys, "ranks", "--s", "3", "--workers", "1")
        assert code == 2 and out == "" and "--n or both --s and --t" in err

    @pytest.mark.parametrize("command", ["census", "ranks"])
    def test_census_past_the_budget_refused(self, capsys, command):
        code, out, err = run(capsys, command, "--s", "2", "--t", "13", "--workers", "1")
        assert code == 2 and out == "" and "2^25 budget" in err and "Traceback" not in err

    def test_census_at_the_budget_needs_no_flag(self, capsys, monkeypatch):
        from chio import census_oracle

        calls = []

        def stub(cfg, aggregates, resume):
            calls.append((cfg.dims, cfg.chunk_size))
            return census_oracle.CensusResult.empty(cfg.dims, aggregates)

        monkeypatch.setattr(census_oracle, "run_census", stub)
        code, out, err = run(capsys, "census", "--n", "5", "--workers", "1")
        assert code == 0 and err == "" and json.loads(out)["dims"] == [5, 5]
        assert calls == [((5, 5), census_oracle.CensusConfig((5, 5)).chunk_size)]

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

    def test_census_chunk_size_defaults_to_the_library(self, capsys, tmp_path):
        import numpy as np
        from chio.census_oracle import CensusConfig

        path = str(tmp_path / "c.ckpt")
        code, _, _ = run(capsys, "census", "--n", "3", "--workers", "1", "--checkpoint", path)
        assert code == 0
        with np.load(path, allow_pickle=False) as ckpt:
            assert int(ckpt["header"][3]) == CensusConfig((3, 3)).chunk_size

    def test_census_resume_needs_checkpoint(self, capsys):
        code, out, err = run(capsys, "census", "--n", "3", "--workers", "1", "--resume")
        assert code == 2 and out == "" and "--checkpoint" in err

    def test_census_resume_missing_checkpoint(self, capsys, tmp_path):
        # A misspelt path must not restart the census and write a fresh file.
        missing = tmp_path / "no_such.ckpt"
        code, out, err = run(
            capsys, "census", "--n", "3", "--workers", "1", "--checkpoint", str(missing), "--resume"
        )
        assert code == 2 and out == "" and str(missing) in err
        assert "Traceback" not in err and not missing.exists()

    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        import chio.cli

        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(chio.cli, "cmd_formulas", boom)
        code, out, err = run(capsys, "formulas", "--n", "4")
        assert code == 3 and out == ""
        assert "Traceback" in err and "RuntimeError: boom" in err

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

    @pytest.mark.parametrize("n", ["2", "1", "0"])
    def test_formulas_small_n(self, capsys, n):
        code, out, err = run(capsys, "formulas", "--n", n)
        assert code == 2 and out == ""
        assert "closed forms need n >= 3" in err

    def test_recipe_rejects_seven_entries(self, capsys):
        code, _, err = run(capsys, "recipe", "--matrix=+++/+++/+..")
        assert code == 2 and "six" in err

    @pytest.mark.parametrize("command", ["pchio", "recipe", "classify"])
    def test_n_must_match_object_dims(self, capsys, command):
        matrix = '{"dims": [3, 3], "entries": [[1, 1, 1]]}'
        code, out, err = run(capsys, command, "--matrix", matrix, "--n", "5")
        assert code == 2 and out == "" and "--n 5 disagrees" in err
        assert run(capsys, command, "--matrix", matrix, "--n", "3")[0] == 0

    def test_unwritable_out_is_refused_before_work(self, capsys, monkeypatch, tmp_path):
        from chio import verify

        calls = []
        monkeypatch.setattr(verify, "run_suites", lambda *a, **k: calls.append(1) or [])
        for target in (tmp_path / "missing" / "x.txt", tmp_path):
            code, out, err = run(capsys, "verify", "--suite", "census", "--out", str(target))
            assert code == 2 and out == "" and "error" in err
        assert calls == []

    def test_failed_command_leaves_out_file_as_it_was(self, capsys, tmp_path):
        kept = tmp_path / "kept.json"
        kept.write_text("earlier report\n")
        fresh = tmp_path / "fresh.json"
        for target in (kept, fresh):
            code, out, _ = run(capsys, "pchio", "--matrix", "[[2]]", "--out", str(target))
            assert code == 2 and out == ""
        assert kept.read_text() == "earlier report\n" and not fresh.exists()

    def test_unwritable_checkpoint_is_refused_before_the_census(
        self, capsys, monkeypatch, tmp_path
    ):
        from chio import census_oracle

        calls = []
        monkeypatch.setattr(census_oracle, "run_census", lambda *a, **k: calls.append(1))
        for path in (tmp_path / "missing" / "c.ckpt", tmp_path):
            code, out, err = run(
                capsys, "census", "--n", "3", "--workers", "1", "--checkpoint", str(path)
            )
            assert code == 2 and out == "" and "error" in err
        assert calls == [] and list(tmp_path.iterdir()) == []


class TestStability:
    @pytest.mark.parametrize("matrix", list(PINNED_REPORTS))
    def test_matrix_reports_are_pinned(self, capsys, matrix):
        got = []
        for command in MATRIX_COMMANDS:
            code, out, _ = run(capsys, command, f"--matrix={matrix}")
            got.append(hashlib.sha256(out.encode()).hexdigest()[:16] if code == 0 else (code, out))
        assert got == [digest or (2, "") for digest in PINNED_REPORTS[matrix]]

    def test_verify_relations_suite_stable(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "relations")
        code2, out2, _ = run(capsys, "verify", "--suite", "relations")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "PASS" in out1 and "FAIL" not in out1

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_verify_timings_leave_stdout_unchanged(self, capsys, monkeypatch, tmp_path, fmt):
        from chio import verify

        real = verify.suite_relations
        # A check that times itself, as chio-identity's exhaustive check does.
        monkeypatch.setattr(
            verify, "suite_relations", lambda: real() + [verify._check("timed", True, seconds=0.5)]
        )
        argv = ["verify", "--suite", "failures,relations", "--format", fmt]
        code1, plain, _ = run(capsys, *argv)
        target = tmp_path / "timings.json"
        code2, timed, _ = run(capsys, *argv, "--timings", str(target))
        assert code1 == code2 == 0 and plain == timed
        record = json.loads(target.read_text())
        suites = record["suites"]
        assert [e["suite"] for e in suites] == ["failures", "relations"]
        if fmt == "json":
            shown = [e["suite"] for e in json.loads(plain)]
        else:
            shown = [line.split("[")[1].split("]")[0] for line in plain.splitlines()[:-1]]
        assert [e["checks"] for e in suites] == [shown.count("failures"), shown.count("relations")]
        assert all(e["failed"] == 0 and e["seconds"] >= 0 for e in suites)
        # Each failure census times itself; the h identity does not.
        failures, relations = (e["check_seconds"] for e in suites)
        assert sorted(failures) == sorted(
            f"failure census k={k} n={n}" for n in range(4, 13) for k in (4, 5, 6)
        )
        assert all(seconds >= 0 for seconds in failures.values())
        assert relations == {"timed": 0.5}
        assert "seconds" not in plain
        assert record["seconds"] == pytest.approx(sum(e["seconds"] for e in suites), abs=1e-3)

    def test_verify_timings_unwritable_path_exits_2(self, capsys, monkeypatch, tmp_path):
        from chio import verify

        calls = []
        monkeypatch.setattr(verify, "run_suites", lambda *a, **k: calls.append(a) or [])
        code, out, err = run(
            capsys, "verify", "--suite", "relations", "--timings", str(tmp_path / "no" / "t.json")
        )
        assert code == 2 and out == "" and "error" in err
        assert calls == []

    @pytest.mark.parametrize("suites", ["relations,bogus", "census,bogus", "bogus"])
    def test_verify_unknown_suite_refused_before_any_work(
        self, capsys, monkeypatch, tmp_path, suites
    ):
        from chio import verify

        def ran(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "suite_relations", ran)
        monkeypatch.setattr(verify, "suite_census", ran)
        target = tmp_path / "t.json"
        target.write_bytes(b'{"seconds": 1.0}\n')
        code, out, err = run(capsys, "verify", "--suite", suites, "--timings", str(target))
        assert code == 2 and out == "" and "'bogus'" in err
        assert target.read_bytes() == b'{"seconds": 1.0}\n'

    def test_verify_seed_option_is_gone(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "relations", "--seed", "0")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failures_bytes_identical_across_hash_seeds(self, fmt):
        # Values and isotypes hash by identity; string hashes change with
        # the seed.  Neither may reach the output.
        src = str(Path(chio.__file__).resolve().parent.parent)
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-m", "chio.cli", "failures", "--k", "6", "--n", "5",
                 "--format", fmt],
                env=env, capture_output=True, timeout=120, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] and b"342144" in outputs[0]

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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_refuses_worker_flag_below_one(self, capsys, workers):
        code, out, err = run(capsys, "census", "--n", "3", "--workers", workers)
        assert code == 2 and out == ""
        assert "worker count must be at least 1" in err

    @pytest.mark.parametrize("env", ["0", "-1", "two"])
    def test_refuses_env_workers_below_one(self, capsys, monkeypatch, env):
        monkeypatch.setenv("CHIO_WORKERS", env)
        code, out, err = run(capsys, "census", "--n", "3")
        assert code == 2 and out == ""
        assert "CHIO_WORKERS must be an integer of at least 1" in err

    def test_commands_without_a_pool_ignore_env_workers(self, capsys, monkeypatch):
        usual = run(capsys, "failures", "--k", "4", "--n", "4")
        monkeypatch.setenv("CHIO_WORKERS", "0")
        assert run(capsys, "failures", "--k", "4", "--n", "4") == usual
        assert usual[0] == 0 and usual[1]


# Run in a fresh interpreter: imports chio.cli, runs one command with stdout
# silenced, and prints the exit code with which of numpy, multiprocessing and
# chio.failure_enum were loaded after the import and after the command.
STARTUP_PROBE = """
import contextlib, io, json, sys
HEAVY = {"numpy", "multiprocessing", "chio.failure_enum"}
import chio.cli
after_import = sorted(HEAVY & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    code = chio.cli.main(sys.argv[1:])
print(json.dumps([code, after_import, sorted(HEAVY & set(sys.modules))]))
"""


def startup_probe(*argv):
    src = str(Path(chio.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


class TestStartup:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pchio", "--matrix=+-/-+"],
            ["recipe", "--matrix=+-/-+"],
            ["classify", "--matrix=+-/-+"],
            ["condense", "--matrix", "+-/--"],
            ["formulas", "--n", "4"],
            ["failures", "--k", "4", "--n", "4"],
            ["switch-orbit", "--matrix=+-/-+"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_commands_without_a_census_load_neither_numpy_nor_multiprocessing(self, argv):
        # Only failures and formulas load failure_enum, and only when they run.
        lazy = ["chio.failure_enum"] if argv[0] in ("failures", "formulas") else []
        assert startup_probe(*argv) == [0, [], lazy]

    def test_census_loads_numpy(self):
        code, after_import, after_census = startup_probe("census", "--n", "3", "--workers", "1")
        assert code == 0 and after_import == [] and "numpy" in after_census
