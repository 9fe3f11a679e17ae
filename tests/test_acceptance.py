"""Acceptance suite: eight criteria, one printed verdict line each.

Two chains appear here.  `cumulative_ideal(sys, k)` is the raw chain
Ī_k, the sum of the minor-coefficient ideals of M_1..M_k, behind κ.  The
paper's chain is its real radical I_k = √ℝ(I_{M_k}), behind r* and the
singular set.  Criterion 2 reads I_k through `radical_heuristic`.
Criteria 1 and 3 read Ī_k and check a published I_k value against its
radical, proven exactly by `radical_equals`.

Two published values are corrected, each by a derivation from the system
file written next to its check:

- criterion 3, k = 2: the published generator z1·N is only the v0¹
  coefficient of det M_2; the full step-2 ideal is Ī_2 = N·⟨z1,z2⟩, and
  z1·N is checked as a member of it;
- criterion 6: for the shipped map x/2 + u·sin(πx) the published sets
  {0,2} and {0} are S_2 and S_3, not S_1 and S_2 (S_1 = {0,1,2}).

`TestChainIdealsSympy` rederives Ī_k for these systems with sympy,
independently of the package, and compares."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from accesskit import (
    Ideal,
    algorithm1,
    algorithm2,
    backward_analysis,
    build_M,
    generic_accessibility,
    invariance_check,
    jacobian_rank,
    point_status,
    radical_heuristic,
    simulate,
    submersivity_check,
    symbolic_rank,
    VariableRegistry,
)
from accesskit.analysis import _step_ideal, cumulative_ideal
from accesskit.oracle import (
    finite_difference_jacobian,
    grid_scan_1d,
    numeric_access_matrix,
)
from accesskit.ring import RationalFunction
from accesskit.sysfile import to_numeric_step

from conftest import SYSTEMS
from test_groebner import _random_state_poly
from test_poly import _random_poly

COIL_BINDS = {"T": Fraction(1, 10), "a": Fraction(2), "b": Fraction(3)}


def verdict(capsys, num, checks):
    failed = [label for label, ok in checks if not ok]
    line = "criterion %d: %s" % (
        num,
        "PASS" if not failed else "FAIL (%s)" % "; ".join(failed),
    )
    with capsys.disabled():
        print(line)
    assert not failed, line


@pytest.fixture(scope="module")
def coil_report(coil):
    return algorithm2(coil)


@pytest.fixture(scope="module")
def rational2d_report(rational2d):
    return algorithm2(rational2d)


@pytest.fixture(scope="module")
def fivestep_report(fivestep):
    return algorithm2(fivestep)


@pytest.fixture(scope="module")
def backward_report(coil_reversed):
    return backward_analysis(coil_reversed)


def radical_equals(ideal, gens):
    """Exact proof that √ideal = √ℝ ideal = <gens>, for gens linear forms.

    Checks <gens>^2 ⊆ ideal ⊆ <gens> by membership.  An ideal of linear
    forms is prime and is the vanishing ideal of its real zero set, so it
    is its own radical and real radical; taking radicals of the sandwich
    gives <gens> ⊆ √ideal ⊆ √ℝ ideal ⊆ <gens>."""
    outer = Ideal(ideal.reg, gens)
    square = [g * h for g, h in itertools.combinations_with_replacement(gens, 2)]
    return all(outer.contains(g) for g in ideal.generators) and all(
        ideal.contains(p) for p in square
    )


def points_of(report):
    return report.singular_set.kind == "points" and report.singular_set.points == [
        (Fraction(0), Fraction(0))
    ]


class TestCriterion1Coil:
    def test_criterion_1(self, coil, coil_report, capsys):
        reg = coil.reg
        x1, x2, T = reg.var("x1"), reg.var("x2"), reg.var("T")
        I2 = cumulative_ideal(coil, 2)
        I3 = cumulative_ideal(coil, 3)
        I4 = cumulative_ideal(coil, 4)
        # The published I3 = <x1, x2> is a value of the radical chain; the
        # raw Ī_3 is <x1, x2>^2, so the check compares its radical.
        verdict(
            capsys,
            1,
            [
                ("I2 = <x1*(x1+T*x2)>", I2.equal(Ideal(reg, [x1 * (x1 + T * x2)]))),
                ("I3 = radical of Ī_3 = <x1, x2>", radical_equals(I3, [x1, x2])),
                ("I4 = I3", I4.equal(I3)),
                ("kappa = 3", coil_report.kappa == 3),
                ("singular set {(0,0)}", points_of(coil_report)),
            ],
        )

    def test_criterion_1_companion(self, coil, coil_report):
        # the degree-3 chain ideal is <x1,x2>^2, whose radical and zero set
        # match the expected <x1,x2>; index and singular set agree
        reg = coil.reg
        x1, x2 = reg.var("x1"), reg.var("x2")
        m = Ideal(reg, [x1, x2])
        I3 = cumulative_ideal(coil, 3)
        assert not I3.equal(m)
        assert all(m.contains(g) for g in I3.generators)
        rad, _cert = radical_heuristic(I3)
        assert rad.equal(m)
        assert cumulative_ideal(coil, 4).equal(I3)
        assert coil_report.kappa == 3
        assert points_of(coil_report)


class TestCriterion2Rational:
    def test_criterion_2(self, rational2d, rational2d_report, capsys):
        reg = rational2d.reg
        x1, x2 = reg.var("x1"), reg.var("x2")
        m = Ideal(reg, [x1, x2])
        I2, c2 = radical_heuristic(_step_ideal(rational2d, 2))
        I3, c3 = radical_heuristic(_step_ideal(rational2d, 3))
        I4, c4 = radical_heuristic(_step_ideal(rational2d, 4))
        r_star, _final, certified = algorithm1(rational2d)
        verdict(
            capsys,
            2,
            [
                ("I2 = <x2*(x1+x2)>", I2.equal(Ideal(reg, [x2 * (x1 + x2)]))),
                ("I2 radical certified", c2),
                ("I3 = <x1, x2>", I3.equal(m)),
                ("I4 = I3", I4.equal(I3)),
                ("r* = 3 certified", r_star == 3 and certified),
                ("singular set {(0,0)}", points_of(rational2d_report)),
            ],
        )


class TestCriterion3Backward:
    def test_criterion_3(self, coil_reversed, backward_report, capsys):
        reg = coil_reversed.reg
        z1, z2, T, b = reg.var("z1"), reg.var("z2"), reg.var("T"), reg.var("b")
        # Step 2, derived from systems/coil_reversed.sys.  With
        # N = z1 - T*(b*z1 + z2) and D(v) = 1 - b*T - a*T^2*v the map is
        # z' = (N, z2 - a*T*v*z1) / D(v), so
        #   B = a*T*N/D(v)^2 * w  with  w = (T, -1),   det[A*w | w] = -T,
        #   N(z') = [((1 - T*b)^2 + a*T^2*v)*z1 - T*(2 - T*b)*z2] / D(v).
        # Hence det M_2 = det[A<1>*B | B<1>] = -a^2*T^3 * N * N(z'),
        # divided by D(v0)^2*D(v1)^2, with v = v0 in N(z').  Its
        # v0-coefficients N*((1 - T*b)^2*z1 - T*(2 - T*b)*z2) and
        # a*T^2*N*z1 generate Ī_2 = N*<z1, z2> over Q(T, a, b).
        # Its radical is <N>.  The published generator z1*N is the v0^1
        # coefficient alone: its zero set would take in the whole z2-axis,
        # where the companion test certifies full rank at (0, 1).
        N = z1 - T * (b * z1 + z2)
        J2 = cumulative_ideal(coil_reversed, 2)
        J3 = cumulative_ideal(coil_reversed, 3)
        verdict(
            capsys,
            3,
            [
                ("Ī_2 = N*<z1, z2>", J2.equal(Ideal(reg, [N * z1, N * z2]))),
                ("published z1*N in Ī_2", J2.contains(z1 * N)),
                ("I2 = radical of Ī_2 = <N>", radical_equals(J2, [N])),
                ("I3 = radical of Ī_3 = <z1, z2>", radical_equals(J3, [z1, z2])),
                ("singular point (0,0)", points_of(backward_report)),
                (
                    "index <= 3",
                    backward_report.kappa is not None and backward_report.kappa <= 3,
                ),
            ],
        )

    def test_criterion_3_companion(self, coil_reversed, backward_report):
        # the computed step-2 ideal strictly contains the expected principal
        # generator: at z = (0,1) the expected generator vanishes but the
        # two-step matrix has full rank, so the principal ideal is too small
        reg = coil_reversed.reg
        z1, z2, T, b = reg.var("z1"), reg.var("z2"), reg.var("T"), reg.var("b")
        expected_gen = z1 * (z1 - T * (b * z1 + z2))
        J2 = cumulative_ideal(coil_reversed, 2)
        assert J2.contains(expected_gen)
        assert not J2.equal(Ideal(reg, [expected_gen]))
        v = point_status(coil_reversed, (0, 1), 2)
        assert not v.in_S_k and not v.undefined
        rad, _ = radical_heuristic(cumulative_ideal(coil_reversed, 3))
        assert rad.equal(Ideal(reg, [z1, z2]))
        assert backward_report.kappa == 3
        assert points_of(backward_report)


class TestCriterion4Fivestep:
    def test_criterion_4(self, fivestep, capsys):
        rng = random.Random(5)
        prefix_ok = True
        for _ in range(10):
            us = [[rng.uniform(-2, 2)] for _ in range(3)]
            traj = simulate(fivestep, (0.0, 1.0), us)
            prefix_ok = prefix_ok and traj.states[1:4] == [
                [1.0, 1.0],
                [1.0, 0.0],
                [0.0, -1.0],
            ]
        v4 = point_status(fivestep, (0, 1), 4)
        v5 = point_status(fivestep, (0, 1), 5)
        verdict(
            capsys,
            4,
            [
                ("trajectory prefix exact x10", prefix_ok),
                ("numeric rank 1 at k=4", jacobian_rank(fivestep, (0.0, 1.0), 4).rank == 1),
                ("numeric rank 2 at k=5", jacobian_rank(fivestep, (0.0, 1.0), 5).rank == 2),
                ("(0,1) in S_4", v4.in_S_k and not v4.undefined),
                ("(0,1) not in S_5", not v5.in_S_k and not v5.undefined),
                (
                    "generically accessible with M_2",
                    symbolic_rank(build_M(fivestep, 2)) == 2,
                ),
            ],
        )


class TestCriterion5Drift:
    def test_criterion_5(self, drift, capsys):
        ranks_deficient = all(
            symbolic_rank(build_M(drift, k)) < 2 for k in (2, 3, 4, 5)
        )
        verdict(
            capsys,
            5,
            [
                ("submersive", submersivity_check(drift)),
                ("not generically accessible", not generic_accessibility(drift)),
                ("generic rank < 2 for k=2..5", ranks_deficient),
            ],
        )


@pytest.fixture(scope="module")
def levels(sinemap_spec):
    step = to_numeric_step(sinemap_spec)
    return grid_scan_1d(
        step, (0.0, 2.0), (-1.0, 1.0), 3, grid=0.01, samples=64, threshold=1e-6
    )


class TestCriterion6Scan:
    @staticmethod
    def as_set(vals):
        return {round(v, 6) for v in vals}

    def test_criterion_6(self, levels, capsys):
        # systems/sinemap.sys: x' = x/2 + u*sin(pi*x), so dx'/du = sin(pi*x)
        # vanishes exactly at the integers, and there x' = x/2 whatever u
        # is.  Off the integers, u1 = ... = u(k-1) = 0 keeps dx(k)/du0 =
        # 2^(1-k)*sin(pi*x) nonzero.  So x is insensitive for k steps iff
        # x, x/2, ..., x/2^(k-1) are all integers: S_k = [0, 2] ∩ 2^(k-1)Z.
        # The published {0, 2} and {0} are S_2 and S_3 of this map.
        verdict(
            capsys,
            6,
            [
                ("k=1 flags exactly {0, 1, 2}", self.as_set(levels[0]) == {0.0, 1.0, 2.0}),
                ("k=2 flags exactly {0, 2}", self.as_set(levels[1]) == {0.0, 2.0}),
                ("k=3 flags exactly {0}", self.as_set(levels[2]) == {0.0}),
            ],
        )

    def test_criterion_6_companion(self, levels):
        # the map x/2 + u*sin(pi*x) has every integer insensitive at one
        # step (sin(pi*x) = 0), so the [0,2] window flags {0,1,2}; from
        # x = 2 the orbit 2 -> 1 -> 1/2 is input-insensitive twice, giving
        # {0,2} at two steps and {0} from three steps on
        assert self.as_set(levels[0]) == {0.0, 1.0, 2.0}
        assert self.as_set(levels[1]) == {0.0, 2.0}
        assert self.as_set(levels[2]) == {0.0}


class TestCriterion7Properties:
    def test_criterion_7(
        self,
        coil,
        rational2d,
        fivestep,
        integrator,
        coil_report,
        rational2d_report,
        fivestep_report,
        capsys,
    ):
        reg = VariableRegistry(("x1", "x2"), ("u",), ("T", "a", "b"), 2)
        names = reg.names()
        rng = random.Random(1201)

        leibniz = 0
        for _ in range(1000):
            f, g = _random_poly(reg, rng), _random_poly(reg, rng)
            v = names[rng.randrange(len(names))]
            lhs = (RationalFunction(f) * RationalFunction(g)).diff(v)
            rhs = RationalFunction(f) * RationalFunction(g.diff(v)) + (
                RationalFunction(g) * RationalFunction(f.diff(v))
            )
            leibniz += lhs == rhs

        subst = 0
        for _ in range(1000):
            f = RationalFunction(_random_poly(reg, rng))
            g = RationalFunction(_random_poly(reg, rng))
            sub_name = names[rng.randrange(len(names))]
            pt = {
                n: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for n in names
            }
            composed = f.substitute({sub_name: g})
            inner = dict(pt)
            inner[sub_name] = g.evaluate(pt)
            subst += composed.evaluate(pt) == f.evaluate(inner)

        gb_reg = VariableRegistry(("x1", "x2"), ("u",), ("T",), 1)
        gb_det = 0
        for _ in range(1000):
            gens = [_random_state_poly(gb_reg, rng) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                gb_det += 1
                continue
            perm = list(gens)
            rng.shuffle(perm)
            a = Ideal(gb_reg, gens).groebner_basis()
            b = Ideal(gb_reg, perm).groebner_basis()
            gb_det += [str(g) for g in a] == [str(g) for g in b]

        corpus = [
            (coil, COIL_BINDS),
            (rational2d, {}),
            (fivestep, {}),
        ]
        chain_rule = 0
        tries = 0
        while chain_rule < 50 and tries < 400:
            tries += 1
            sys, binds = corpus[tries % len(corpus)]
            bound = sys.bind_params(binds) if binds else sys
            k = rng.randint(1, 4)
            x0 = [rng.uniform(-1.5, 1.5) for _ in range(sys.n)]
            us = [[rng.uniform(-1, 1) for _ in range(sys.m)] for _ in range(k)]
            try:
                M = numeric_access_matrix(bound, x0, us)
                F = finite_difference_jacobian(bound, x0, us)
            except Exception:
                continue
            scale = max(1.0, float(np.max(np.abs(M))))
            if float(np.max(np.abs(M - F))) / scale < 1e-5:
                chain_rule += 1

        stabilized = [
            (coil, coil_report),
            (rational2d, rational2d_report),
            (fivestep, fivestep_report),
            (integrator, algorithm2(integrator)),
        ]
        invariant = all(
            rep.kappa is not None and invariance_check(rep.chain.ideal, sys)
            for sys, rep in stabilized
        )

        genericity = True
        for sys, rep in stabilized[:3]:
            gb = rep.chain.ideal.groebner_basis()
            state_names = rep.chain.ideal.reg.states
            singular = 0
            for _ in range(500):
                pt = {
                    n: Fraction(rng.randint(-50, 50), rng.randint(1, 7))
                    for n in state_names
                }
                pt.update({p: Fraction(1, 3) for p in sys.reg.params})
                if all(g.evaluate(pt) == 0 for g in gb):
                    singular += 1
            genericity = genericity and singular <= 5

        verdict(
            capsys,
            7,
            [
                ("Leibniz 1000/1000", leibniz == 1000),
                ("substitution 1000/1000", subst == 1000),
                ("GB determinism 1000/1000", gb_det == 1000),
                ("chain rule 50/50 within 1e-5", chain_rule == 50),
                ("stabilized chains invariant", invariant),
                ("genericity >= 99% of 500", genericity),
            ],
        )


class TestCriterion8OracleEquivalence:
    def test_criterion_8(
        self,
        coil,
        rational2d,
        fivestep,
        integrator,
        coil_report,
        rational2d_report,
        fivestep_report,
        capsys,
    ):
        rng = random.Random(0xEC)
        corpus = [
            (coil, COIL_BINDS, coil_report.kappa),
            (rational2d, {}, rational2d_report.kappa),
            (fivestep, {}, fivestep_report.kappa),
            (integrator, {}, algorithm2(integrator).kappa),
        ]
        checks = []
        for sys, binds, kappa in corpus:
            bound = sys.bind_params(binds) if binds else sys
            numeric_params = {k: float(v) for k, v in binds.items()}
            agree = True
            count = 0
            while count < 50:
                x0 = tuple(
                    Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                    for _ in range(sys.n)
                )
                ks = range(sys.n, kappa + 2)
                verdicts = [point_status(sys, x0, k) for k in ks]
                if any(v.undefined for v in verdicts):
                    continue  # on the excluded denominator locus; redraw
                count += 1
                for k, v in zip(ks, verdicts):
                    est = jacobian_rank(
                        bound, [float(c) for c in x0], k, samples=9
                    )
                    agree = agree and v.in_S_k == (est.rank < sys.n)
            checks.append((f"{sys.name}: 50 points agree", agree))
        verdict(capsys, 8, checks)


def _sympy_system(sympy, name):
    """States, inputs, parameters and right-hand sides of a .sys file,
    read straight from its text into sympy."""
    decl, rhs = {}, {}
    for line in (SYSTEMS / f"{name}.sys").read_text().splitlines():
        line = line.split("#")[0].strip()
        head, _, rest = line.partition(" ")
        if head in ("states", "inputs", "params"):
            decl[head] = sympy.symbols(rest.split())
        elif "=" in line:
            lhs, expr = line.split("=", 1)
            rhs[lhs.strip().rstrip("'")] = sympy.sympify(expr)
    return decl["states"], decl["inputs"], decl["params"], rhs


def _sympy_chain_ideal(sympy, name, k):
    """Ī_k by sympy alone: the input-coefficient ideals of all n x n minors
    of the Jacobian of the j-step map in (u_0, ..., u_(j-1)), j = 1..k,
    as a reduced grevlex basis over Q(params)."""
    states, inputs, params, rhs = _sympy_system(sympy, name)
    phi = [rhs[str(s)] for s in states]
    flow, seq, coeffs = list(states), [], []
    for t in range(k):
        step = [sympy.Symbol(f"{u}_{t}") for u in inputs]
        sub = dict(zip(states, flow))
        sub.update(zip(inputs, step))
        flow = [sympy.cancel(p.xreplace(sub)) for p in phi]
        seq += step
        jac = sympy.Matrix(flow).jacobian(seq)
        for cols in itertools.combinations(range(len(seq)), len(states)):
            num, _den = sympy.fraction(sympy.cancel(jac[:, cols].det()))
            coeffs += sympy.Poly(num, *seq).coeffs()
    domain = sympy.QQ.frac_field(*params)
    return sympy.groebner(coeffs, *states, order="grevlex", domain=domain)


class TestChainIdealsSympy:
    # coil_reversed at k = 3 is left out: sympy's groebner does not finish
    # it in minutes.
    @pytest.mark.parametrize(
        "name,k", [("coil", 2), ("coil", 3), ("coil_reversed", 2)]
    )
    def test_cumulative_ideal_matches_sympy(self, name, k, request):
        sympy = pytest.importorskip("sympy")
        expected = _sympy_chain_ideal(sympy, name, k)
        sys = request.getfixturevalue(name)
        gens = [sympy.sympify(str(g)) for g in cumulative_ideal(sys, k).generators]
        got = sympy.groebner(gens, *expected.gens, order="grevlex", domain=expected.domain)
        assert all(expected.contains(g) for g in got.exprs)
        assert all(got.contains(g) for g in expected.exprs)
