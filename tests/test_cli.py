"""Command-line interface: subcommands, JSON contracts, exit codes."""

import json
from fractions import Fraction

import pytest

from accesskit import cli
from accesskit.cli import (
    EXIT_ANALYSIS,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_POLE,
    main,
)
from accesskit.errors import VerificationError
from conftest import SYSTEMS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip() else None
    return code, doc


def path(name):
    return str(SYSTEMS / f"{name}.sys")


COIL_BIND = ("--bind", "T=1/10,a=1,b=1")


class TestCheck:
    def test_coil(self, capsys):
        code, doc = run(capsys, "check", path("coil"))
        assert code == EXIT_OK
        assert doc["submersive"] and doc["generically_accessible"]
        assert doc["tool"] == "accesskit"
        assert len(doc["input_sha256"]) == 64

    def test_drift_not_accessible(self, capsys):
        code, doc = run(capsys, "check", path("drift"))
        assert code == EXIT_OK
        assert doc["submersive"] and not doc["generically_accessible"]
        assert "not generically accessible" in doc["verdict"]


class TestIndexAndSingular:
    def test_coil_index(self, capsys):
        code, doc = run(capsys, "index", path("coil"))
        assert code == EXIT_OK
        assert doc["kappa"] == 3
        assert doc["singular_set"]["kind"] == "points"
        assert doc["singular_set"]["points"] == [["0", "0"]]
        assert [c["k"] for c in doc["chain"]] == [2, 3]

    def test_exact_radical_flag(self, capsys):
        code, doc = run(
            capsys, "index", path("rational2d"), "--exact-radical"
        )
        assert code == EXIT_OK
        assert doc["r_star"] == 3
        assert doc["r_star_certified"] is True

    def test_fivestep_singular(self, capsys):
        code, doc = run(capsys, "singular", path("fivestep"))
        assert code == EXIT_OK
        assert doc["kappa"] == 6
        assert doc["singular_set"]["points"] == [["0", "0"]]

    def test_integrator_empty(self, capsys):
        code, doc = run(capsys, "singular", path("integrator"))
        assert code == EXIT_OK
        assert doc["singular_set"]["kind"] == "empty"

    def test_max_k_budget_exhaustion(self, capsys):
        code, doc = run(capsys, "index", path("fivestep"), "--max-k", "3")
        assert code == EXIT_BUDGET
        assert doc["budget_exhausted"] is True

    def test_parametric_raw_generators(self, tmp_path, capsys):
        # the chain stops at k = n = 2 with raw generators that carry T,
        # while its basis <x2^2, x1*x2, x1^2> does not
        f = tmp_path / "d.sys"
        f.write_text(
            "system d\nparams T\nstates x1 x2\ninputs u\n"
            "x1' = x2 + T*u*x1\nx2' = x1 + u*x2\n"
        )
        code, doc = run(capsys, "index", str(f))
        assert code == EXIT_OK
        assert doc["kappa"] == 2
        assert doc["singular_set"]["points"] == [["0", "0"]]

    def test_json_deterministic(self, capsys):
        _, a = run(capsys, "index", path("coil"))
        _, b = run(capsys, "index", path("coil"))
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert a == b


EXPECTED = sorted((SYSTEMS.parent / "tests" / "cli_expected").glob("*.json"))


@pytest.mark.parametrize("case", EXPECTED, ids=[p.stem for p in EXPECTED])
def test_corpus_output_unchanged(case, capsys):
    # each file holds a corpus command with its recorded exit code and
    # stdout (apart from elapsed_seconds); a refactor leaves both unchanged,
    # so a file is rewritten only for an intended change of output
    want = json.loads(case.read_text())
    argv = [str(SYSTEMS.parent / a) if a.endswith(".sys") else a for a in want["argv"]]
    code, doc = run(capsys, *argv)
    doc.pop("elapsed_seconds")
    assert (code, doc) == (want["exit_code"], want["stdout"])


class TestPoint:
    def test_origin_in_singular_set(self, capsys):
        code, doc = run(
            capsys, "point", path("coil"), "--x", "0,0", "--k", "3"
        )
        assert code == EXIT_OK
        assert doc["in_S_k"] is True
        assert "not accessible" in doc["verdict"]

    def test_rational_coordinates(self, capsys):
        code, doc = run(
            capsys, "point", path("fivestep"), "--x", "1/2,1/3", "--k", "2"
        )
        assert code == EXIT_OK
        assert doc["point"] == ["1/2", "1/3"]
        assert doc["in_S_k"] is False

    def test_wrong_dimension(self, capsys):
        code, _ = run(capsys, "point", path("coil"), "--x", "1", "--k", "2")
        assert code == EXIT_PARSE
        # simulate and rank check their arguments the same way
        unbound = "needs values for parameters: T, a, b"
        for argv, message in (
            (("simulate", *COIL_BIND, "--x", "1", "--u", "1"), "--x needs 2"),
            (("simulate", *COIL_BIND, "--x", "1,2,3", "--u", "1"), "--x needs 2"),
            (("simulate", *COIL_BIND, "--x", "1,2", "--u", "1,2;1"), "--u step needs 1"),
            (("rank", *COIL_BIND, "--x", "1", "--k", "1"), "--x needs 2"),
            (("rank", "--x", "1,2", "--k", "1"), unbound),
            (("simulate", "--x", "1,2", "--u", "1"), unbound),
        ):
            assert main([argv[0], path("coil"), *argv[1:]]) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err


class TestNumeric:
    def test_simulate(self, capsys):
        code, doc = run(
            capsys,
            "simulate",
            path("fivestep"),
            "--x",
            "0,1",
            "--u",
            "1;1;1",
        )
        assert code == EXIT_OK
        assert doc["states"][1] == [1.0, 1.0]
        assert doc["states"][2] == [1.0, 0.0]

    def test_simulate_pole_exit_code(self, capsys):
        code, _ = run(
            capsys, "simulate", path("rational2d"), "--x", "1,0", "--u", "-1"
        )
        assert code == EXIT_POLE

    def test_rank(self, capsys):
        code, doc = run(
            capsys,
            "rank",
            path("coil"),
            *COIL_BIND,
            "--x",
            "1,1",
            "--k",
            "2",
        )
        assert code == EXIT_OK
        assert doc["rank"] == 2
        assert doc["certification"] == "sampled"

    def test_scan1d(self, capsys):
        code, doc = run(
            capsys,
            "scan1d",
            path("sinemap"),
            "--k",
            "2",
            "--grid",
            "0.05",
            "--samples",
            "16",
        )
        assert code == EXIT_OK
        assert doc["certification"] == "estimate"
        assert doc["levels"][0]["flagged"] == [0.0, 1.0, 2.0]
        assert doc["levels"][1]["flagged"] == [0.0, 2.0]

    def test_scan1d_negative_range_in_equals_form(self, capsys):
        # argparse reads a separate value that starts with "-" as an
        # option, so a range with a negative start is given as --u-range=-1,1
        scan = ["scan1d", path("sinemap"), "--k", "1", "--grid", "0.5"]
        _, default = run(capsys, *scan)
        code, doc = run(capsys, *scan, "--u-range=-1,1")
        assert code == EXIT_OK
        default.pop("elapsed_seconds")
        doc.pop("elapsed_seconds")
        assert doc == default


class TestBackward:
    def test_inverse_coil(self, capsys):
        code, doc = run(capsys, "backward", "--inverse", path("coil_reversed"))
        assert code == EXIT_OK
        assert doc["mode"] == "backward"
        assert doc["kappa"] == 3
        assert doc["singular_set"]["points"] == [["0", "0"]]


class TestErrors:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.sys"
        bad.write_text("system t\nstates x\ninputs u\nx' = x + y\n")
        code, _ = run(capsys, "check", str(bad))
        assert code == EXIT_PARSE

    def test_symbolic_command_on_numeric_file(self, capsys):
        code, _ = run(capsys, "index", path("sinemap"))
        assert code == EXIT_PARSE

    def test_bad_bind(self, capsys):
        code, _ = run(capsys, "check", path("coil"), "--bind", "nonsense")
        assert code == EXIT_PARSE

    def test_horizon_below_one_is_a_usage_error(self, capsys):
        for argv in (
            ["point", path("coil"), "--x", "0,0"],
            ["rank", path("coil"), "--x", "0,0"],
            ["scan1d", path("sinemap")],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--k", "0"])
            assert exc.value.code == EXIT_PARSE
            assert "horizon must be >= 1" in capsys.readouterr().err

    def test_nonpositive_budget_grid_or_samples_is_a_usage_error(self, capsys):
        rank = ["rank", path("coil"), *COIL_BIND, "--x", "0,0", "--k", "1"]
        scan = ["scan1d", path("sinemap"), "--k", "1"]
        backward = ["backward", "--inverse", path("coil_reversed")]
        for argv, message in (
            (["index", path("coil"), "--max-k", "0"], "--max-k"),
            (["index", path("coil"), "--max-k", "-1"], "--max-k"),
            (["singular", path("coil"), "--max-k", "0"], "--max-k"),
            (backward + ["--max-k", "0"], "--max-k"),
            (rank + ["--samples", "0"], "--samples"),
            (scan + ["--grid", "0.5", "--samples", "0"], "--samples"),
            (scan + ["--grid", "0"], "--grid"),
            (scan + ["--grid", "-0.5"], "--grid"),
            (scan + ["--grid", "inf"], "--grid"),
            (scan + ["--x-range", "0"], "--x-range"),
            (scan + ["--x-range", "2,0"], "--x-range"),
            (scan + ["--x-range", "1,1"], "--x-range"),
            (scan + ["--x-range", "0,nan"], "--x-range"),
            (scan + ["--x-range=-inf,2"], "--x-range"),
            (scan + ["--x-range", "0,2,3"], "--x-range"),
            (scan + ["--x-range", "0,a"], "--x-range"),
            (scan + ["--u-range", "1"], "--u-range"),
            (scan + ["--u-range", "1,-1"], "--u-range"),
            (scan + ["--u-range=-1,inf"], "--u-range"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == "" and f"argument {message}:" in captured.err


class TestAnalysisFailure:
    def test_analysis_error_is_not_a_parse_error(self, monkeypatch, capsys):
        # an error raised by the analysis itself exits 1, not 2
        def fail(*args, **kwargs):
            raise VerificationError("radical chain check failed")

        monkeypatch.setattr(cli, "algorithm1", fail)
        code = main(["index", path("coil"), "--exact-radical"])
        captured = capsys.readouterr()
        assert code == EXIT_ANALYSIS
        assert captured.out == ""
        assert captured.err == "error: radical chain check failed\n"


class TestRealSingularPoints:
    def write(self, tmp_path, name, rhs):
        f = tmp_path / f"{name}.sys"
        f.write_text(f"system {name}\nstates x\ninputs u\nx' = x + u*{rhs}\n")
        return str(f)

    def test_seven_points_exact_radical(self, tmp_path, capsys):
        # x' = x + u*q(x): S_1 is the zero set of q, here seven points, and
        # I_1 = <q> is already its real radical, so r* = 1
        factors = "*".join(f"(x-{i})" for i in range(7))
        sevenpoint = self.write(tmp_path, "sevenpoint", factors)
        code, doc = run(capsys, "index", sevenpoint, "--exact-radical")
        assert code == EXIT_OK
        assert (doc["kappa"], doc["r_star"], doc["r_star_certified"]) == (1, 1, True)
        assert doc["singular_set"]["points"] == [[str(i)] for i in range(7)]

    def test_irrational_points_are_boxes(self, tmp_path, capsys):
        code, doc = run(capsys, "singular", self.write(tmp_path, "sqrt2", "(x^2 - 2)"))
        assert code == EXIT_OK
        s = doc["singular_set"]
        assert s["kind"] == "boxes"
        assert len(s["boxes"]) == 2
        for (name, lo, hi), sign in zip(s["boxes"], (-1, 1)):
            lo, hi = Fraction(lo), Fraction(hi)
            assert name == "x"
            assert sign * lo > 0 and sign * hi > 0
            assert (lo * lo - 2) * (hi * hi - 2) < 0
            assert hi - lo <= Fraction(1, 2**48)

    def test_large_rational_points(self, tmp_path, capsys):
        big = self.write(tmp_path, "big", "(x - 1000000000039)*(x - 1)")
        code, doc = run(capsys, "singular", big)
        assert code == EXIT_OK
        assert doc["singular_set"]["kind"] == "points"
        assert doc["singular_set"]["points"] == [["1"], ["1000000000039"]]
