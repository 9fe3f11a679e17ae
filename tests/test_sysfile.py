"""System-file grammar: parsing, validation, diagnostics, round-trips."""

import random
import re
from fractions import Fraction

import pytest

from accesskit import AccessKitError
from accesskit.sysfile import (
    Num,
    ParseError,
    _evaluate,
    parse_system,
    pretty,
    to_numeric_step,
    to_system_model,
)
from conftest import SYSTEMS


def read(name):
    return (SYSTEMS / f"{name}.sys").read_text()


def random_expression(rng, depth):
    """Expression text in x and u over + - * / ^ and small literals."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["x", "u", str(rng.randint(0, 5)), "1/3", "(x - 1)"])
    if rng.random() < 0.15:
        return f"({random_expression(rng, depth - 1)})^{rng.randint(0, 3)}"
    left, right = (random_expression(rng, depth - 1) for _ in "lr")
    sign = "-" if rng.random() < 0.1 else ""
    return f"{sign}({left}) {rng.choice('+-*/')} ({right})"



def reference_value(text, point):
    """Python's own evaluation of an expression text, in Fractions."""
    code = re.sub(r"\d+", r"F(\g<0>)", text).replace("^", "**")
    return eval(code, {"F": Fraction, **point})


ALL_NAMES = [p.stem for p in sorted(SYSTEMS.glob("*.sys"))]


class TestParsing:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_corpus_parses(self, name):
        spec = parse_system(read(name))
        assert spec.name
        assert set(spec.updates) == set(spec.states)

    def test_coil_declarations(self):
        spec = parse_system(read("coil"))
        assert spec.name == "coil"
        assert spec.params == ("T", "a", "b")
        assert spec.states == ("x1", "x2")
        assert spec.inputs == ("u",)
        assert not spec.numeric_only

    def test_numeric_flag(self):
        spec = parse_system(read("sinemap"))
        assert spec.numeric_only
        assert spec.free_names() <= {"x", "u"}

    def test_comments_and_blank_lines(self):
        text = "# header\n\nsystem t\nstates x  # trailing\ninputs u\nx' = x + u\n"
        spec = parse_system(text)
        assert spec.name == "t"

    def test_expression_semantics(self):
        spec = parse_system("system t\nstates x\ninputs u\nx' = 1 - 2*x^2/4 + u\n")
        step = to_numeric_step(spec)
        assert step(2.0, 0.0) == pytest.approx(1 - 2 * 4 / 4)

    def test_unary_minus_binds_product(self):
        spec = parse_system("system t\nstates x\ninputs u\nx' = -x^2 + u\n")
        step = to_numeric_step(spec)
        # -x^2 is -(x^2), not (-x)^2
        assert step(3.0, 0.0) == pytest.approx(-9.0)

    def test_division_left_associative(self):
        spec = parse_system("system t\nstates x\ninputs u\nx' = 8/4/2 + 0*x + 0*u\n")
        assert to_numeric_step(spec)(0.0, 0.0) == pytest.approx(1.0)


class TestDiagnostics:
    def err(self, text):
        with pytest.raises(ParseError) as e:
            parse_system(text)
        return e.value

    def test_unexpected_character(self):
        e = self.err("system t\nstates x\ninputs u\nx' = x @ u\n")
        assert e.line == 4
        assert "@" in str(e)

    def test_undeclared_symbol_location(self):
        e = self.err("system t\nstates x\ninputs u\nx' = x + y\n")
        assert e.line == 4
        assert "'y'" in str(e)

    def test_missing_states(self):
        e = self.err("system t\ninputs u\n")
        assert "states" in str(e)

    def test_missing_update(self):
        e = self.err("system t\nstates x1 x2\ninputs u\nx1' = x2\n")
        assert "x2" in str(e)

    def test_duplicate_update(self):
        e = self.err("system t\nstates x\ninputs u\nx' = x\nx' = u\n")
        assert e.line == 5

    def test_duplicate_symbol(self):
        self.err("system t\nstates x\ninputs x\nx' = x\n")

    def test_function_needs_numeric_flag(self):
        e = self.err("system t\nstates x\ninputs u\nx' = sin(x) + u\n")
        assert "numeric" in str(e)

    def test_pi_needs_numeric_flag(self):
        self.err("system t\nstates x\ninputs u\nx' = pi*x + u\n")

    def test_exponent_must_be_integer_literal(self):
        self.err("system t\nstates x\ninputs u\nx' = x^u\n")
        self.err("system t\nstates x\ninputs u\nx' = x^2^3 + u\n")
        self.err("system t\nstates x\ninputs u\nx' = x^-2 + u\n")

    @pytest.mark.parametrize(
        "line, message, text",
        [
            (2, "duplicate `system`", "system t\nsystem s\nstates x\ninputs u\nx' = u"),
            (3, "duplicate `states`", "system t\nstates x\nstates y\ninputs u\nx' = u"),
            (5, "undeclared state 'y'", "system t\nstates x\ninputs u\nx' = u\ny' = x"),
            (3, "unrecognized", "system t\nstates x\nconst c\ninputs u\nx' = u"),
            (1, "missing `inputs`", "system t\nstates x\nx' = x"),
            (5, "expected '('", "system t\nstates x\ninputs u\nnumeric\nx' = sin x"),
            # a number is ASCII digits: int() would read '٣' as 3
            (4, "column 6: unexpected character '²'", "system t\nstates x\ninputs u\nx' = ²*u + x"),
            (4, "column 6: unexpected character '٣'", "system t\nstates x\ninputs u\nx' = ٣*u + x"),
        ],
    )
    def test_declaration_errors_report_their_line(self, line, message, text):
        e = self.err(text)
        assert e.line == line
        assert message in str(e)

    def test_column_reported(self):
        e = self.err("system t\nstates x\ninputs u\nx' = x + + u\n")
        assert e.line == 4
        assert e.column > 5


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_pretty_parse_identity(self, name):
        spec = parse_system(read(name))
        assert parse_system(pretty(spec)) == spec

    def test_pretty_is_canonical(self):
        spec = parse_system("system t\nstates x\ninputs u\nx' = (x + u)*x\n")
        again = parse_system(pretty(spec))
        assert pretty(again) == pretty(spec)


class TestConversions:
    def test_to_system_model_matches_phi(self):
        spec = parse_system(read("coil"))
        sys = to_system_model(spec)
        assert sys.n == 2 and sys.m == 1
        pt = {
            "T": Fraction(1, 10),
            "a": Fraction(2),
            "b": Fraction(3),
            "x1": Fraction(1),
            "x2": Fraction(2),
            "u": Fraction(5),
        }
        # x1 + T*x2 and x2 + T*(a*x1*u - b*x2)
        assert sys.phi[0].evaluate(pt) == Fraction(1) + Fraction(1, 10) * 2
        assert sys.phi[1].evaluate(pt) == 2 + Fraction(1, 10) * (2 * 1 * 5 - 3 * 2)

    def test_numeric_only_refuses_symbolic(self):
        spec = parse_system(read("sinemap"))
        with pytest.raises(AccessKitError):
            to_system_model(spec)

    def test_numeric_step_sinemap(self):
        import math

        spec = parse_system(read("sinemap"))
        step = to_numeric_step(spec)
        x, u = 0.3, 0.7
        assert step(x, u) == pytest.approx(x / 2 + u * math.sin(math.pi * x))

    def test_numeric_step_needs_param_values(self):
        spec = parse_system(read("integrator"))
        step = to_numeric_step(spec)
        assert step(1.0, 2.0) == pytest.approx(3.0)

    def test_numeric_step_refuses_unbound_parameter(self):
        spec = parse_system("system t\nparams c\nstates x\ninputs u\nx' = c*x + u\n")
        with pytest.raises(AccessKitError, match="parameters: c"):
            to_numeric_step(spec)

    def test_numeric_step_dimension_guard(self):
        spec = parse_system(read("coil"))
        with pytest.raises(AccessKitError):
            to_numeric_step(spec, {"T": 0.1, "a": 1, "b": 1})

    def test_exact_and_float_steps_evaluate_one_tree(self):
        # the exact model and the float step fold the same tree; at points
        # where no divisor of the tree vanishes, a Fraction fold of the tree,
        # Python's own evaluation of the text and the exact model agree, and
        # the float step agrees to rounding
        rng = random.Random(0x5F11E)
        checked = 0
        for _ in range(300):
            text = random_expression(rng, 4)
            spec = parse_system(f"system r\nstates x\ninputs u\nx' = {text}\n")
            ast = spec.updates["x"]
            try:
                phi = to_system_model(spec).phi[0]
            except AccessKitError:
                continue  # a divisor that is identically zero
            step = to_numeric_step(spec)
            for _ in range(3):
                point = {
                    v: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for v in "xu"
                }

                def fraction_leaf(node):
                    return node.value if isinstance(node, Num) else point[node.name]

                try:
                    exact = reference_value(text, point)
                except ZeroDivisionError:
                    continue  # a pole of the tree at this point
                assert _evaluate(ast, fraction_leaf) == exact, text
                assert phi.evaluate(point) == exact, text
                value = step(float(point["x"]), float(point["u"]))
                assert value == pytest.approx(float(exact), rel=1e-9), text
                checked += 1
        assert checked >= 400
