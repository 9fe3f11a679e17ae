"""Command-line interface: subcommands, JSON contracts, exit codes."""

import json
from fractions import Fraction

import pytest

from accesskit import cli, groebner
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


def _non_finite(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def run(capsys, *argv):
    # stdout is parsed as strict JSON: NaN and Infinity are refused
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out, parse_constant=_non_finite) if out.strip() else None
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

    def test_bindings_are_recorded(self, capsys):
        # T = a = b = 0 makes coil not generically accessible; the document
        # names the values, so it cannot pass for the unbound one
        binds = ("--bind", "T=0,a=0", "--bind", "b=0")
        _, bound = run(capsys, "check", path("coil"), *binds)
        _, free = run(capsys, "check", path("coil"))
        assert bound["bindings"] == {"T": "0", "a": "0", "b": "0"}
        assert not bound["generically_accessible"]
        assert "bindings" not in free and free["generically_accessible"]
        _, doc = run(capsys, "singular", path("coil"), *COIL_BIND)
        assert doc["bindings"] == {"T": "1/10", "a": "1", "b": "1"}

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

    def test_groebner_budget_exits_3_with_one_line(self, monkeypatch, capsys):
        # a ResourceBudgetError from the analysis, not report.budget_exhausted
        monkeypatch.setattr(groebner, "_DEGREE_CAP", 1)
        code = main(["index", path("fivestep")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_BUDGET, "")
        assert captured.err == (
            "resource budget exceeded: Groebner degree budget 1 exceeded\n"
        )

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
        # the same command twice, and a --bind with a trailing comma, give
        # the same document
        trailing = ("--bind", COIL_BIND[1] + ",")
        for first, second in (
            (("index", path("coil")),) * 2,
            (("check", path("coil"), *COIL_BIND), ("check", path("coil"), *trailing)),
        ):
            _, a = run(capsys, *first)
            _, b = run(capsys, *second)
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

    def test_scan1d_keeps_inputs_in_u_range(self, tmp_path, capsys):
        # every input in [1, 2] leaves x' = x + exp(-50 u) flat (derivative
        # at most 50 exp(-50) < 1e-20); only u = 0, outside the range, moves it
        f = tmp_path / "expu.sys"
        f.write_text("system expu\nstates x\ninputs u\nnumeric\nx' = x + exp(-50*u)\n")
        code, doc = run(
            capsys, "scan1d", str(f), "--k", "1", "--grid", "0.5", "--u-range", "1,2"
        )
        assert code == EXIT_OK
        assert doc["levels"][0]["flagged"] == [0.0, 0.5, 1.0, 1.5, 2.0]


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
        code, _ = run(capsys, "backward", "--inverse", path("sinemap"))
        assert code == EXIT_PARSE

    def test_bad_bind(self, capsys):
        code, _ = run(capsys, "check", path("coil"), "--bind", "nonsense")
        assert code == EXIT_PARSE

    def test_unknown_bind_on_numeric_file(self, capsys):
        code = main(["scan1d", path("sinemap"), "--bind", "zz=1"])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert "'zz' is not a parameter of sinemap" in captured.err

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "{tmp}/nonexist.sys"],
            ["index", "{tmp}"],
            ["check", path("coil"), "--bind", "T=1/0"],
            ["check", path("coil"), "--bind", "nonsense"],
            ["point", path("coil"), "--x", "1/0,1", "--k", "1"],
            ["simulate", path("fivestep"), "--x", "0,1", "--u", "1/0"],
            ["simulate", path("fivestep"), "--x", "1e400,1", "--u", "1"],
        ],
        ids=[
            "missing-file",
            "directory",
            "bind",
            "bind-shape",
            "point",
            "inputs",
            "float-overflow",
        ],
    )
    def test_unreadable_file_or_rational_exits_2(self, argv, tmp_path, capsys):
        code = main([a.format(tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        # an argument has no line in any file
        assert "line 0" not in captured.err

    def test_meaningless_tolerance_threshold_or_grid_is_a_usage_error(self, capsys):
        rank = ["rank", path("fivestep"), "--x", "0,1", "--k", "2"]
        scan = ["scan1d", path("sinemap"), "--k", "1"]
        for argv, message in (
            (rank + ["--tol", "inf"], "--tol:"),
            (rank + ["--tol", "-1"], "--tol:"),
            (rank + ["--tol", "nan"], "--tol:"),
            (rank + ["--tol", "abc"], "--tol: 'abc' is not a finite number >= 0"),
            (scan + ["--threshold", "nan"], "--threshold:"),
            (scan + ["--threshold", "-1"], "--threshold:"),
            (scan + ["--threshold", "inf"], "--threshold:"),
            # more grid points than the cap are refused before any scan
            (scan + ["--grid", "5e-324"], "--grid:"),
            (scan + ["--grid", "1e-300"], "--grid:"),
            (scan + ["--x-range", "0,1", "--grid", "1e-6"], "--grid:"),
            (scan + ["--x-range=-1e308,1e308", "--grid", "1"], "--grid:"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == "" and f"argument {message}" in captured.err

    def test_zero_tolerance_and_threshold_are_accepted(self, capsys):
        rank = ["rank", path("fivestep"), "--x", "0,1", "--k", "5"]
        code, doc = run(capsys, *rank, "--tol", "0")
        assert (code, doc["rank"]) == (EXIT_OK, 2)
        scan = ["scan1d", path("integrator"), "--k", "1", "--grid", "0.5"]
        code, doc = run(capsys, *scan, "--threshold", "0")
        assert (code, doc["levels"][0]["flagged"]) == (EXIT_OK, [])


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

    # per command: the analysis entry the CLI calls, a run of the command,
    # and arguments that make that run's input wrong (a later --x wins)
    ANALYSES = {
        "check": ("submersivity_check", [path("coil")], ["--bind", "zz=1"]),
        "index": ("algorithm2", [path("coil")], ["--bind", "zz=1"]),
        "singular": ("algorithm2", [path("coil")], ["--bind", "zz=1"]),
        "backward": (
            "backward_analysis",
            ["--inverse", path("coil_reversed")],
            ["--bind", "zz=1"],
        ),
        "point": (
            "point_status",
            [path("coil"), "--x", "0,0", "--k", "1"],
            ["--x", "0"],
        ),
        "simulate": (
            "simulate",
            [path("fivestep"), "--x", "0,1", "--u", "1"],
            ["--x", "0,1,2"],
        ),
        "rank": (
            "jacobian_rank",
            [path("fivestep"), "--x", "0,1", "--k", "1"],
            ["--x", "0"],
        ),
        "scan1d": (
            "grid_scan_1d",
            [path("sinemap"), "--k", "1", "--grid", "0.5"],
            ["--bind", "zz=1"],
        ),
    }

    @pytest.mark.parametrize("error", [VerificationError, ValueError])
    @pytest.mark.parametrize("cmd", list(ANALYSES))
    def test_every_command_parts_input_from_analysis(
        self, cmd, error, monkeypatch, capsys
    ):
        # an error raised by the analysis exits 1; one in the command's own
        # input exits 2, as it is read before the analysis starts
        entry, argv, bad_input = self.ANALYSES[cmd]

        def fail(*args, **kwargs):
            raise error("the analysis failed")

        monkeypatch.setattr(cli, entry, fail)
        code = main([cmd, *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_ANALYSIS, "")
        assert captured.err == "error: the analysis failed\n"
        code = main([cmd, *argv, *bad_input])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_PARSE, "")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "rhs, argv",
        [
            ("x^2 + u", ["simulate", "--x", "10", "--u", ";".join(["0"] * 10)]),
            ("exp(1000*x) + u", ["scan1d", "--k", "1", "--grid", "0.5"]),
            (
                "100000000000000000000*x + u",
                ["simulate", "--x", "1", "--u", ";".join(["0"] * 20)],
            ),
        ],
        ids=["power", "exp", "infinite-state"],
    )
    def test_float_overflow_is_an_analysis_failure(self, rhs, argv, tmp_path, capsys):
        # a float that overflows in the analysis, or a state that reaches
        # infinity and so has no RFC 8259 form, exits 1 with stdout empty
        numeric = "numeric\n" if "exp" in rhs else ""
        f = tmp_path / "overflow.sys"
        f.write_text(f"system overflow\nstates x\ninputs u\n{numeric}x' = {rhs}\n")
        code = main([argv[0], str(f), *argv[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_ANALYSIS, "")
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


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
