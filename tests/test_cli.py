"""Command-line behavior: exit codes, output formats, round trips."""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qschur import cli, theorems
from qschur.cli import main
from qschur.qseries import ZERO, MarkerSeries, qpow
from qschur.theorems import check_goellnitz, check_schur, count_reports, reports_to_csv

from oracles import count_text_literal


GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "qschur", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestExitCodes:
    def test_verify_success_is_zero(self):
        code, out, _ = run_cli("verify", "eq53", "--L", "0..4")
        assert code == 0
        assert "all hold" in out

    def test_unknown_identity_is_usage_error(self):
        code, _, err = run_cli("verify", "bogus")
        assert code == 2
        assert "unknown identity" in err

    def test_missing_range_is_usage_error(self):
        code, _, err = run_cli("verify", "eq21", "--L", "0..1")
        assert code == 2

    def test_bad_range_is_usage_error(self):
        code, _, err = run_cli("verify", "eq53", "--L", "5..1")
        assert code == 2

    def test_perturbed_identity_fails_with_witness(self):
        code, out, _ = run_cli("verify", "eq21", "--L", "0..1", "--M", "0..1",
                               "--i", "0..1", "--j", "0..1", "--perturb")
        assert code == 1
        assert "first differing coefficient at q^0" in out

    def test_verify_has_no_n_flag(self):
        # no identity takes n, so 'verify' does not offer it
        code, _, err = run_cli("verify", "eq21", "--L", "0", "--M", "0",
                               "--i", "0", "--j", "0", "--n", "3")
        assert code == 2
        assert "unrecognized arguments: --n 3" in err

    def test_count_negative_n_is_usage_error(self):
        code, _, err = run_cli("count", "S", "--n", "-1")
        assert code == 2

    def test_unknown_theorem_is_usage_error(self):
        code, _, _ = run_cli("count", "T9", "--n", "0..3")
        assert code == 2

    def test_inverse_of_non_gap_input_is_a_counterexample(self):
        code, _, err = run_cli("bijection", "inverse", "a2+b1")
        assert code == 1
        assert "gap condition" in err

    def test_bijection_parse_failure_is_usage_error(self):
        code, _, _ = run_cli("bijection", "inverse", "zz9")
        assert code == 2
        code, _, _ = run_cli("bijection", "forward", "a1+b2")  # missing '/'
        assert code == 2

    def test_csv_rejected_outside_count(self):
        assert run_cli("gf", "GL", "--L", "1", "--format", "csv")[0] == 2
        assert run_cli("verify", "eq53", "--L", "0..2", "--format", "csv")[0] == 2


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["gf", "GL", "--L", "abc"],
        ["gf", "GL", "--L", "1..2"],
        ["count", "T1", "--n", "3", "--i", "-1"],
        ["count", "T2", "--n", "3", "--L", "2", "--M", "2", "--i", "-1"],
        ["count", "T2", "--n", "3", "--L", "2", "--M", "2", "--j", "-1"],
        ["count", "T3", "--n", "3", "--L", "2", "--M", "2", "--i", "-1"],
        ["count", "T3", "--n", "3", "--L", "2", "--M", "2", "--j", "-1"],
        ["verify", "eq26", "--i", "0", "--j", "0", "--qmax", "-3"],
        ["verify", "eq11", "--amax", "-1", "--bmax", "2", "--qmax", "5"],
        ["gf", "GL", "--L", "2", "--qmax", "-1"],
        ["gf", "GL", "--L", "2", "--amax", "-1", "--bmax", "0"],
        ["gf", "GL", "--L", "2", "--amax", "0", "--bmax", "-1"],
        ["count", "T2", "--n", "3", "--L", "-1", "--M", "2"],
        ["count", "T2", "--n", "3", "--L", "2", "--M", "-1"],
        ["count", "T3", "--n", "3", "--L", "-1", "--M", "2"],
        ["count", "T3", "--n", "3", "--L", "1", "--M", "-1..2"],
        # a range or cap flag the identity does not take
        ["verify", "eq53", "--L", "2", "--M", "5"],
        ["verify", "eq26", "--i", "0..1", "--j", "0", "--amax", "3"],
        # a flag the theorem does not take
        ["count", "T1", "--n", "3", "--L", "5", "--M", "2"],
        ["count", "T1", "--n", "3", "--M", "2"],
        ["count", "S", "--n", "3", "--i", "2"],
        ["count", "G", "--n", "3", "--j", "0"],
        ["count", "G", "--n", "3", "--L", "1"],
        # a negative --n is folded into one token and reaches count's check
        ["count", "S", "--n", "-1"],
        # rejected by the parser itself: an unknown flag, a value outside
        # a flag's choices or type, a missing positional or subcommand
        ["verify", "eq53", "--L", "1", "--n", "3"],
        ["verify", "eq53", "--L", "1", "--format", "xml"],
        ["verify", "eq26", "--i", "0", "--j", "0", "--qmax", "x"],
        ["bijection", "sideways", "a1"],
        ["count"],
        pytest.param([], id="(no arguments)"),
        # count grids with no check in the theorem's domain
        ["count", "T1", "--n", "0", "--i", "1"],
        ["count", "T2", "--n", "0..3", "--L", "1", "--M", "1", "--i", "1", "--j", "1"],
        ["count", "T3", "--n", "0..3", "--L", "3", "--M", "2"],
        # an --out path that cannot be written: a directory, and a path
        # under a regular file; neither creates anything
        pytest.param(["verify", "eq21", "--L", "0", "--M", "0", "--i", "0", "--j", "0",
                      "--out", str(GOLDEN)], id="verify eq21 --out <a directory>"),
        pytest.param(["gf", "GL", "--L", "2",
                      "--out", str(GOLDEN / "gf_GL_L4.txt" / "x.json")],
                     id="gf GL --out <a path under a file>"),
    ], ids=" ".join)
    def test_exits_2_with_one_error_line(self, argv, capsys):
        # main returns 2 itself: no usage error leaves it as SystemExit
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_negative_ranges_on_the_documented_grid(self):
        code, out, _ = run_cli("verify", "eq21", "--L", "-3..6", "--M", "-3..6",
                               "--i", "-3..6", "--j", "-3..6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["cells"] == 10 ** 4
        assert payload["summary"]["holds"] is True

    def test_json_summary(self):
        code, out, _ = run_cli("verify", "eq32", "--L", "0..5", "--i", "0..3",
                               "--j", "0..3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["holds"] is True
        assert payload["summary"]["skipped"] > 0
        assert payload["failures"] == []

    def test_a_grid_outside_the_domain_is_a_usage_error(self, capsys):
        assert main(["verify", "rec55", "--L", "0..1"]) == 2
        assert capsys.readouterr().err == \
            "error: identity rec55: no cell of the grid is in its domain\n"
        assert main(["verify", "rec55", "--L", "0..2"]) == 0
        assert capsys.readouterr().out == \
            "identity rec55: 1 cells evaluated, 2 skipped, all hold\n"

    @pytest.mark.parametrize("argv", [
        # [0; j] = (q^{1-j})_j / (q)_j holds the factor 1 - q^0
        ["verify", "eq21", "--L", "0", "--M", "0", "--i", "0", "--j", "600"],
        ["verify", "eq21", "--L", "0", "--M", "0", "--i", "0", "--j", "400"],
        # 1/(q)_500 truncated at q^3, from a cold table
        ["verify", "eq26", "--i", "500", "--j", "0", "--qmax", "3"],
    ], ids=" ".join)
    def test_long_products_neither_recurse_nor_stall(self, argv):
        proc = subprocess.run([sys.executable, "-m", "qschur", *argv],
                              capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith(": 1 cells evaluated, 0 skipped, all hold\n")

    def test_caps_are_accepted(self):
        code, out, _ = run_cli("verify", "eq26", "--i", "0..2", "--j", "0..2",
                               "--qmax", "20")
        assert code == 0

    def test_threads_env_is_deterministic(self):
        import os
        env = dict(os.environ, QSCHUR_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-m", "qschur", "verify", "eq21",
             "--L", "0..2", "--M", "0..2", "--i", "0..2", "--j", "0..2",
             "--perturb", "--format", "json"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        params = [f["params"] for f in payload["failures"]]
        assert params == sorted(params, key=lambda p: (p["L"], p["M"], p["i"], p["j"]))


def _span(text):
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def _reports(theorem, flags):
    """The library's reports for ``count theorem flags``, in the order the
    command documents: n for S and G; n, i, j for T1; L, M, i, j, n for T2
    and T3, over every cell of the flags' grid in the theorem's domain."""
    ranges = {name[2:]: _span(value) for name, value in zip(flags[::2], flags[1::2])}
    ns = ranges["n"]
    if theorem in ("S", "G"):
        return (check_schur if theorem == "S" else check_goellnitz)(max(ns))[ns[0]:]
    if theorem == "T1":
        every = range(0, max(ns) + 1)
        cells = [(n, i, j) for n in ns for i in ranges.get("i", every)
                 for j in ranges.get("j", every) if i * (i + 1) // 2 + j * (j + 1) // 2 <= n]
        return count_reports(theorem, cells)
    cells = []
    for L, M in itertools.product(ranges["L"], ranges["M"]):
        every = range(0, max(L, M) + 1)
        for i, j in itertools.product(ranges.get("i", every), ranges.get("j", every)):
            if (i + j <= min(L, M)) if theorem == "T2" else (M >= L >= i + j):
                cells += [(n, i, j, L, M) for n in ns]
    return count_reports(theorem, cells)


class TestCountCommand:
    def test_a_grid_outside_the_domain_is_a_usage_error(self, capsys):
        assert main(["count", "T3", "--n", "0..3", "--L", "3", "--M", "2"]) == 2
        assert capsys.readouterr().err == \
            "error: count T3: no cell of the grid is in its domain\n"
        assert main(["count", "T1", "--n", "0..1", "--i", "1"]) == 0
        assert capsys.readouterr().out.endswith("\n1 checks, 0 failed\n")

    def test_schur_rows(self):
        code, out, _ = run_cli("count", "S", "--n", "0..40")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 42  # 41 rows plus the summary line
        assert lines[-1] == "41 checks, 0 failed"

    @pytest.mark.parametrize("theorem", ["S", "G"])
    @pytest.mark.parametrize("n, kept", [("18..20", [18, 19, 20]), ("20", [20])])
    def test_the_lower_bound_of_n_is_honoured(self, theorem, n, kept, capsys):
        assert main(["count", theorem, "--n", n]) == 0
        *rows, summary = capsys.readouterr().out.strip().split("\n")
        assert [row.split(":")[0] for row in rows] == [f"{theorem} n={m}" for m in kept]
        assert summary == f"{len(kept)} checks, 0 failed"

    def test_t2_sweep(self):
        code, out, _ = run_cli("count", "T2", "--n", "0..8", "--L", "2..3",
                               "--M", "2..4")
        assert code == 0

    def test_csv_format(self):
        code, out, _ = run_cli("count", "S", "--n", "0..3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "theorem,n,lhs,rhs,holds"

    def test_explicit_ij_ranges(self):
        code, out, _ = run_cli("count", "T2", "--n", "0..5", "--L", "3", "--M", "4",
                               "--i", "1", "--j", "0..1")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(" i=1 " in line for line in lines[:-1])

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("theorem", ["S", "T2"])
    def test_a_failing_cell_is_reported(self, theorem, fmt, monkeypatch, capsys):
        # one left side made one too large: S at n = 3 through the classical
        # rows, T2 at (n, i, j) = (4, 1, 1) through count_V's product
        if theorem == "S":
            true_rows = theorems.classical_rows

            def classical_rows(name, n_max):
                rows = true_rows(name, n_max)
                rows[3] = (rows[3][0] + 1, rows[3][1])
                return rows

            monkeypatch.setattr(theorems, "classical_rows", classical_rows)
            argv, checks = ["count", "S", "--n", "0..5"], 6
            line, csv_row, params = "S n=3: 2 = 1 FAIL", "S,3,2,1,False", {"n": 3}
        else:
            true_gf = theorems._vector_gf
            monkeypatch.setattr(theorems, "_vector_gf", lambda i, j, L, M: true_gf(i, j, L, M)
                                + (qpow(4) if (i, j) == (1, 1) else ZERO))
            argv, checks = ["count", "T2", "--n", "0..4", "--L", "2", "--M", "3"], 30
            line = "T2 n=4 i=1 j=1 L=2 M=3: 2 = 1 FAIL"
            csv_row = "T2,4,1,1,2,3,2,1,False"
            params = {"n": 4, "i": 1, "j": 1, "L": 2, "M": 3}
        assert main([*argv, "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "text":
            lines = out.splitlines()
            assert [row for row in lines if row.endswith(" FAIL")] == [line]
            assert lines[-1] == f"{checks} checks, 1 failed"
        elif fmt == "csv":
            rows = out.splitlines()[1:-1]
            assert len(rows) == checks
            assert [row for row in rows if not row.endswith(",True")] == [csv_row]
        else:
            reports = json.loads(out)
            assert len(reports) == checks
            failing = [report for report in reports if report["holds"] is not True]
            assert [(r["params"], r["lhs"], r["rhs"], r["holds"]) for r in failing] == \
                [(params, 2, 1, False)]

    @pytest.mark.parametrize("theorem,flags", [
        ("S", ["--n", "3..9"]),
        ("G", ["--n", "0..12"]),
        ("T1", ["--n", "0..7"]),
        ("T1", ["--n", "5..8", "--i", "2", "--j", "0..1"]),
        ("T2", ["--n", "0..6", "--L", "1..2", "--M", "2..3"]),
        ("T2", ["--n", "2..7", "--L", "3", "--M", "2", "--i", "0..1", "--j", "1"]),
        # dilated weights n with 3 not dividing n+2i+j read 0 = 0
        ("T3", ["--n", "0..14", "--L", "1..2", "--M", "2..3"]),
        ("T3", ["--n", "5..12", "--L", "2", "--M", "3", "--i", "1", "--j", "0..1"]),
    ])
    def test_every_format_is_the_reports_rendered(self, theorem, flags, capsys):
        # the command writes from the counts; the same bytes must come from
        # the report objects of the library's grid and classical checks
        reports = _reports(theorem, flags)
        expected = {"text": count_text_literal(reports),
                    "csv": reports_to_csv(reports),
                    "json": json.dumps([r.to_json_dict() for r in reports], indent=2)}
        for fmt, text in expected.items():
            assert main(["count", theorem, *flags, "--format", fmt]) == 0
            assert capsys.readouterr().out.encode() == (text + "\n").encode(), fmt

    @pytest.mark.parametrize("golden,argv", [
        ("count_T2_n0-6_L2_M3.json",
         ["count", "T2", "--n", "0..6", "--L", "2", "--M", "3", "--format", "json"]),
        ("count_T3_n0-9_L1_M2.json",
         ["count", "T3", "--n", "0..9", "--L", "1", "--M", "2", "--format", "json"]),
        ("gf_GL_L4_a2_q9.json",
         ["gf", "GL", "--L", "4", "--amax", "2", "--qmax", "9", "--format", "json"]),
        ("gf_GL_L4.txt", ["gf", "GL", "--L", "4"]),
        # the multinomial side R_L and the trinomial representation
        ("gf_RL_L4.json", ["gf", "RL", "--L", "4", "--format", "json"]),
        ("gf_trinomialRHS_L3.txt", ["gf", "trinomialRHS", "--L", "3"]),
        ("count_T2_n0-4_L1_M2.csv",
         ["count", "T2", "--n", "0..4", "--L", "1", "--M", "2", "--format", "csv"]),
        # recorded from the enumerated censuses, before they were counted
        ("count_T1_n0-30.csv", ["count", "T1", "--n", "0..30", "--format", "csv"]),
        ("count_T1_n28-30_i2-3_j1-3.json",
         ["count", "T1", "--n", "28..30", "--i", "2..3", "--j", "1..3", "--format", "json"]),
        ("count_T2_n22-24_L11_M9-11_i1-2_j0-3.json",
         ["count", "T2", "--n", "22..24", "--L", "11", "--M", "9..11", "--i", "1..2",
          "--j", "0..3", "--format", "json"]),
        ("count_T3_n40-45_L4_M4-5_i1-2.json",
         ["count", "T3", "--n", "40..45", "--L", "4", "--M", "4..5", "--i", "1..2",
          "--format", "json"]),
    ])
    def test_json_matches_the_recorded_bytes(self, golden, argv, capsys, tmp_path):
        # pins the JSON contract, breakdown key order included, on stdout
        # and in the --out file
        assert main(argv) == 0
        out, _ = capsys.readouterr()
        assert out.encode() == (GOLDEN / golden).read_bytes()
        assert main([*argv, "--out", str(tmp_path / golden)]) == 0
        assert (tmp_path / golden).read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("golden,argv", [
        ("verify_eq11_a2_b2_q8_perturb.json",
         ["verify", "eq11", "--amax", "2", "--bmax", "2", "--qmax", "8"]),
        ("verify_eq61_a1_b1_c1_q6_perturb.json",
         ["verify", "eq61", "--amax", "1", "--bmax", "1", "--cmax", "1", "--qmax", "6"]),
        ("verify_eq32_L0-4_i0-2_j0-2_perturb.json",
         ["verify", "eq32", "--L", "0..4", "--i", "0..2", "--j", "0..2"]),
        ("verify_rec55_L2-4_perturb.json", ["verify", "rec55", "--L", "2..4"]),
        # negative tops, and cells whose terms vanish at a zero q-binomial
        ("verify_eq21_Lm1-1_M0-1_i0-1_jm1-1_perturb.json",
         ["verify", "eq21", "--L", "-1..1", "--M", "0..1", "--i", "0..1", "--j", "-1..1"]),
        # multinomial reads, with out-of-domain slots in rec59
        ("verify_eq48_L2-3_M2-3_i0-2_j0-2_perturb.json",
         ["verify", "eq48", "--L", "2..3", "--M", "2..3", "--i", "0..2", "--j", "0..2"]),
        ("verify_rec59_L1-3_im1-2_j0-2_perturb.json",
         ["verify", "rec59", "--L", "1..3", "--i", "-1..2", "--j", "0..2"]),
    ])
    def test_perturbed_verify_json_matches_the_recorded_bytes(self, golden, argv, capsys,
                                                              tmp_path):
        # both sides, witness and summary of a failing sweep, byte for byte
        assert main([*argv, "--perturb", "--format", "json"]) == 1
        out, _ = capsys.readouterr()
        assert out.encode() == (GOLDEN / golden).read_bytes()
        target = tmp_path / golden
        assert main([*argv, "--perturb", "--format", "json", "--out", str(target)]) == 1
        assert target.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("argv", [
        ["verify", "eq21", "--L", "0..12", "--M", "0..12", "--i", "0..6", "--j", "0..6",
         "--perturb", "--format", "json"],
        ["count", "T2", "--n", "0..6", "--L", "2", "--M", "3"],
        ["gf", "GL", "--L", "4"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_fails_before_computing(self, argv, monkeypatch, capsys):
        def computes(*args, **kwargs):
            raise AssertionError("computed before opening --out")

        for name in ("sweep", "cell_counts", "build_GL"):
            monkeypatch.setattr(cli, name, computes)
        assert main([*argv, "--out", str(GOLDEN / "gf_GL_L4.txt" / "x.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write ")

    def test_a_command_that_raises_leaves_an_empty_out_file(self, tmp_path, monkeypatch):
        def fails(*args, **kwargs):
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(cli, "sweep", fails)
        target = tmp_path / "report.json"
        target.write_text("an older report\n")
        with pytest.raises(RuntimeError):
            main(["verify", "eq53", "--L", "0..2", "--out", str(target)])
        assert target.read_text() == ""

    def test_a_bad_flag_value_leaves_the_out_file_untouched(self, tmp_path, capsys):
        # flag values are checked while parsing, before --out is opened
        target = tmp_path / "report.txt"
        target.write_text("an older report\n")
        assert main(["verify", "eq53", "--L", "5..1", "--out", str(target)]) == 2
        assert capsys.readouterr().err == "error: argument --L: empty range '5..1'\n"
        assert target.read_text() == "an older report\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "eq21", "--L", "0"],
        ["count", "T2", "--n", "3", "--L", "1"],
        ["verify", "bogus", "--L", "0"],
        ["gf", "trinomialRHS", "--L", "0"],
        ["bijection", "forward", "a1"],
        ["bijection", "inverse", "zz9"],
        # grids with no cell in the identity's domain
        ["verify", "rec55", "--L", "0..1"],
        ["verify", "eq516", "--L", "0"],
        ["verify", "eq63lm", "--L", "-1", "--i", "0", "--j", "0", "--k", "0"],
        # count grids with no check in the theorem's domain
        ["count", "T1", "--n", "0", "--i", "1"],
        ["count", "T2", "--n", "0..3", "--L", "1", "--M", "1", "--i", "1", "--j", "1"],
        ["count", "T3", "--n", "0..3", "--L", "3", "--M", "2"],
    ], ids=" ".join)
    def test_a_command_usage_error_leaves_the_out_file_untouched(self, argv, tmp_path,
                                                                 capsys):
        # each command's own usage checks run before --out is opened
        target = tmp_path / "report.txt"
        target.write_bytes(b"an older report\n")
        assert main([*argv, "--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert target.read_bytes() == b"an older report\n"

    def test_count_out_file(self, tmp_path):
        target = tmp_path / "schur.csv"
        code, _, _ = run_cli("count", "S", "--n", "0..5", "--format", "csv",
                             "--out", str(target))
        assert code == 0
        assert target.read_text().splitlines()[0] == "theorem,n,lhs,rhs,holds"


class TestBijectionCommand:
    def test_forward_matches_the_worked_table(self):
        code, out, _ = run_cli("bijection", "forward",
                               "a6+a5+a3+a2+a1 / b9+b8+b6+b4+b2+b1")
        assert code == 0
        assert "pi3 = ab12+ab10+b7+b6+a5+ab4+b2+a1" in out
        # spot-check the four columns of the first data row
        first = out.splitlines()[1].split()
        assert first[0] == "b9"
        assert first[1:4] == ["b2", "|", "7"]
        assert first[4:7] == ["ab5", "|", "7"]
        assert first[7] == "ab12"

    def test_forward_empty(self):
        code, out, _ = run_cli("bijection", "forward", "∅ / ∅")
        assert code == 0
        assert "pi3 = ∅" in out

    def test_inverse_recovers_the_pair(self):
        code, out, _ = run_cli("bijection", "inverse",
                               "ab12+ab10+b7+b6+a5+ab4+b2+a1")
        assert code == 0
        assert "pi1 = a6+a5+a3+a2+a1" in out
        assert "pi2 = b9+b8+b6+b4+b2+b1" in out

    @pytest.mark.parametrize("golden, pair", [
        ("bijection_forward_worked", "a6+a5+a3+a2+a1 / b9+b8+b6+b4+b2+b1"),
        ("bijection_forward_a4a1_b5b2", "a4+a1 / b5+b2"),
        ("bijection_forward_empty_b3b1", "∅ / b3+b1"),
    ])
    def test_forward_matches_the_recorded_bytes(self, golden, pair, capsys):
        # every field of the trace, the lazily built ones included
        for fmt, suffix in (("text", ".txt"), ("json", ".json")):
            assert main(["bijection", "forward", pair, "--format", fmt]) == 0
            out, _ = capsys.readouterr()
            assert out.encode() == (GOLDEN / (golden + suffix)).read_bytes(), fmt

    def test_forward_json_trace(self):
        code, out, _ = run_cli("bijection", "forward", "a1 / b2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pi3"] == [{"color": "b", "weight": 2},
                                  {"color": "a", "weight": 1}]
        assert payload["c2"] == [1, 0]


class TestGfCommand:
    def test_GL_examples(self):
        assert run_cli("gf", "GL", "--L", "1")[1].strip() == "1 + A*q + B*q"
        assert run_cli("gf", "GL", "--L", "0")[1].strip() == "1"

    def test_trinomial_rhs_example(self):
        assert run_cli("gf", "trinomialRHS", "--L", "1")[1].strip() == \
            "1 + A*q + B*q^2"

    def test_PL_equals_GL_dump(self):
        assert run_cli("gf", "PL", "--L", "3")[1] == run_cli("gf", "GL", "--L", "3")[1]

    def test_json_round_trip_bytes(self):
        code, out, _ = run_cli("gf", "GL", "--L", "2", "--format", "json")
        assert code == 0
        series = MarkerSeries.from_json_dict(json.loads(out))
        assert json.dumps(series.to_json_dict(), indent=2) == out.rstrip("\n")

    @pytest.mark.parametrize("flag, kept", [("--amax", "B"), ("--bmax", "A")])
    def test_a_lone_marker_cap_is_applied(self, flag, kept, capsys):
        assert main(["gf", "GL", "--L", "2", flag, "0"]) == 0
        assert capsys.readouterr().out.strip() == \
            f"1 + {kept}*q + {kept}*q^2 + {kept}^2*q^3"

    def test_GL_20_json(self, capsys):
        assert main(["gf", "GL", "--L", "20", "--format", "json"]) == 0
        series = MarkerSeries.from_json_dict(json.loads(capsys.readouterr().out))
        # at q = A = B = 1 the multinomial side R_L sums to 3^L
        assert sum(c for _, poly in series.terms() for _, c in poly.terms()) == 3 ** 20

    def test_usage_errors(self):
        assert run_cli("gf", "GL")[0] == 2
        assert run_cli("gf", "nope", "--L", "2")[0] == 2
        assert run_cli("gf", "trinomialRHS", "--L", "0")[0] == 2

    def test_out_file(self, tmp_path):
        target = tmp_path / "g2.json"
        code, out, _ = run_cli("gf", "GL", "--L", "2", "--format", "json",
                               "--out", str(target))
        assert code == 0
        parsed = MarkerSeries.from_json_dict(json.loads(target.read_text()))
        assert parsed.coeff((2, 0)).coeff(3) == 1


class TestInProcessMain:
    def test_main_returns_exit_codes(self, capsys):
        assert main(["verify", "eq53", "--L", "0..3"]) == 0
        assert main(["verify", "nope"]) == 2
        capsys.readouterr()

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_one_process_prints_what_separate_runs_print(self, tmp_path):
        # main reuses the parser from call to call; each call must still
        # print the bytes and return the code of a run of its own
        argvs = [["verify", "eq21", "--L", "-2..1", "--M", "0..2", "--i", "0..2", "--j", "0..2"],
                 ["verify", "eq53", "--L", "5..1"],
                 ["count", "T2", "--n", "0..4", "--L", "2", "--M", "3"],
                 ["gf", "GL", "--L", "3", "--format", "json", "--out", "{out}"],
                 ["verify", "eq21", "--L", "0..2", "--M", "0..2", "--i", "0..1", "--j", "0..1",
                  "--perturb"]]
        script = (
            "import contextlib, io, json, sys\n"
            "from qschur.cli import main\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = main(argv)\n"
            "    runs.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(runs))\n")
        together = [[arg.format(out=tmp_path / "together.json") for arg in argv]
                    for argv in argvs]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(together)],
                              capture_output=True, text=True, check=True)
        runs = json.loads(proc.stdout)
        for argv, (code, out, err) in zip(argvs, runs):
            alone = run_cli(*(arg.format(out=tmp_path / "alone.json") for arg in argv))
            assert (code, out, err) == alone, argv
        assert [code for code, _, _ in runs] == [0, 2, 0, 0, 1]
        assert (tmp_path / "together.json").read_bytes() == \
            (tmp_path / "alone.json").read_bytes()

    def test_a_patched_sweep_is_called_by_the_built_parser(self, monkeypatch, capsys):
        assert main(["verify", "eq53", "--L", "0..1"]) == 0

        def fails(*args, **kwargs):
            raise RuntimeError("patched sweep")

        monkeypatch.setattr(cli, "sweep", fails)
        with pytest.raises(RuntimeError, match="patched sweep"):
            main(["verify", "eq53", "--L", "0..1"])
        capsys.readouterr()
