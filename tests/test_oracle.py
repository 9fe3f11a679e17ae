"""Numeric oracle: simulation, matrix recursion, ranks, grid scans."""

import math
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from accesskit import PoleError, oracle
from accesskit.oracle import (
    _input_samples,
    finite_difference_jacobian,
    grid_scan_1d,
    jacobian_rank,
    numeric_access_matrix,
    simulate,
)
from accesskit.sysfile import parse_system, to_numeric_step, to_system_model

COIL_PARAMS = {"T": Fraction(1, 10), "a": 1, "b": 1}


def test_package_import_leaves_numpy_unloaded():
    # only the float oracle computes with numpy, so only it imports it
    src = pathlib.Path(oracle.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import accesskit; "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestSimulate:
    def test_fivestep_prefix_fixed_for_any_inputs(self, fivestep):
        # from (0, 1) the first three states do not depend on the inputs
        rng = random.Random(11)
        for _ in range(10):
            us = [[rng.uniform(-2, 2)] for _ in range(5)]
            traj = simulate(fivestep, (0.0, 1.0), us)
            assert traj.states[1] == pytest.approx([1.0, 1.0])
            assert traj.states[2] == pytest.approx([1.0, 0.0])
            assert traj.states[3] == pytest.approx([0.0, -1.0])

    def test_fivestep_fourth_step_single_direction(self, fivestep):
        u3 = 0.7
        us = [[0.0], [0.0], [0.0], [u3]]
        traj = simulate(fivestep, (0.0, 1.0), us)
        assert traj.states[4] == pytest.approx([-1.0, -1.0 + 2 * u3])

    def test_deterministic(self, coil):
        us = [[0.3], [-0.2], [0.9]]
        a = simulate(coil.bind_params(COIL_PARAMS), (1.0, -1.0), us)
        b = simulate(coil.bind_params(COIL_PARAMS), (1.0, -1.0), us)
        assert a.states == b.states
        assert a.inputs == b.inputs

    def test_pole_guard(self, rational2d):
        with pytest.raises(PoleError):
            simulate(rational2d, (1.0, 0.0), [[-1.0]])

    def test_integrator_closed_form(self, integrator):
        traj = simulate(integrator, (2.0,), [[1.0], [-3.0], [0.5]])
        assert traj.states[-1] == pytest.approx([0.5])


class TestAccessMatrix:
    @pytest.mark.parametrize("name", ["coil", "rational2d", "fivestep"])
    def test_matches_finite_differences(self, request, name):
        sys = request.getfixturevalue(name)
        if name == "coil":
            sys = sys.bind_params(COIL_PARAMS)
        rng = random.Random(17)
        for _ in range(5):
            x0 = [rng.uniform(0.5, 1.5) for _ in range(sys.n)]
            us = [[rng.uniform(-1, 1)] for _ in range(3)]
            try:
                M = numeric_access_matrix(sys, x0, us)
                J = finite_difference_jacobian(sys, x0, us)
            except PoleError:
                continue
            assert np.max(np.abs(M - J)) < 1e-5

    def test_shape(self, coil):
        bound = coil.bind_params(COIL_PARAMS)
        M = numeric_access_matrix(bound, (1.0, 1.0), [[0.1]] * 4)
        assert M.shape == (2, 4)

    def test_no_steps_is_refused(self, fivestep):
        with pytest.raises(ValueError, match="input step"):
            numeric_access_matrix(fivestep, (0.0, 1.0), [])


class TestBoundModels:
    """The oracle runs on bound models and checks the lengths of its values."""

    def test_free_parameters_are_named(self, coil):
        with pytest.raises(ValueError, match="parameters: T, a, b"):
            simulate(coil, (1.0, 1.0), [[0.5]])
        with pytest.raises(ValueError, match="parameters: T, a, b"):
            jacobian_rank(coil, (1.0, 1.0), 2)

    def test_value_lengths_are_checked(self, coil, fivestep):
        bound = coil.bind_params(COIL_PARAMS)
        for sys, x0, us in (
            (fivestep, (0.0, 1.0), [[1.0], []]),  # a short input step
            (fivestep, (0.0, 1.0), [[1.0, 2.0]]),  # a long input step
            (fivestep, (0.0, 1.0, 2.0), [[1.0]]),  # a long state
            (bound, (1.0,), [[1.0]]),  # a short state
        ):
            with pytest.raises(ValueError, match="takes 2 state and 1 input"):
                simulate(sys, x0, us)
            with pytest.raises(ValueError, match="takes 2 state and 1 input"):
                numeric_access_matrix(sys, x0, us)


class TestJacobianRank:
    def test_fivestep_rank_one_at_four_steps(self, fivestep):
        assert jacobian_rank(fivestep, (0.0, 1.0), 4).rank == 1

    def test_fivestep_rank_two_at_five_steps(self, fivestep):
        est = jacobian_rank(fivestep, (0.0, 1.0), 5)
        assert est.rank == 2
        assert len(est.best_inputs) == 5

    def test_coil_origin_rank_zero(self, coil):
        bound = coil.bind_params(COIL_PARAMS)
        for k in (2, 3, 4):
            assert jacobian_rank(bound, (0.0, 0.0), k).rank == 0

    def test_generic_point_full_rank(self, coil, rational2d):
        assert jacobian_rank(coil.bind_params(COIL_PARAMS), (1.0, 1.0), 2).rank == 2
        assert jacobian_rank(rational2d, (1.0, 1.0), 2).rank == 2

    def test_every_sample_at_a_pole(self):
        spec = parse_system("system p\nstates x\ninputs u\nx' = 1/x + u\n")
        with pytest.raises(PoleError, match="all input samples"):
            jacobian_rank(to_system_model(spec), (0.0,), 2)

    def test_input_samples_are_drawn_lazily(self):
        # each sample is drawn when it is tried, in the order of a list
        # built up front: 2 + 3 * 2 structured samples, then uniform draws
        rng = random.Random(3)
        samples = _input_samples(5, 2, 1000, rng)
        first = list(islice(samples, 9))
        drawn = random.Random(3)
        for _ in range(5 * 2):
            drawn.uniform(-1.0, 1.0)
        assert rng.getstate() == drawn.getstate()
        assert first[:2] == [[[0.0, 0.0]] * 5, [[1.0, 1.0]] * 5]
        rest = list(samples)
        assert first + rest == list(_input_samples(5, 2, 1000, random.Random(3)))
        assert len(first + rest) == 1000
        assert len(list(_input_samples(5, 2, 3, random.Random(3)))) == 3

    def test_rank_monotone_in_k(self, fivestep, coil):
        rng = random.Random(23)
        for sys in (fivestep, coil.bind_params(COIL_PARAMS)):
            for _ in range(5):
                x0 = [rng.uniform(-1.5, 1.5) for _ in range(sys.n)]
                ranks = [jacobian_rank(sys, x0, k).rank for k in (2, 3, 4)]
                assert ranks == sorted(ranks)


class TestGridScan:
    def test_sinemap_levels(self, sinemap_spec):
        step = to_numeric_step(sinemap_spec)
        levels = grid_scan_1d(step, (0.0, 2.0), (-1.0, 1.0), 3, samples=32)

        def as_set(vals):
            return {round(v, 6) for v in vals}

        assert as_set(levels[0]) == {0.0, 1.0, 2.0}
        assert as_set(levels[1]) == {0.0, 2.0}
        assert as_set(levels[2]) == {0.0}

    def test_levels_nested(self, sinemap_spec):
        step = to_numeric_step(sinemap_spec)
        levels = grid_scan_1d(step, (0.0, 2.0), (-1.0, 1.0), 3, samples=32)
        for shallow, deep in zip(levels, levels[1:]):
            assert set(deep) <= set(shallow)

    def test_accessible_map_flags_nothing(self):
        step = lambda x, u: x + u
        levels = grid_scan_1d(step, (0.0, 1.0), (-1.0, 1.0), 2, samples=16)
        assert levels == [[], []]

    def test_large_samples_draw_only_a_few_sequences(self, monkeypatch):
        # insensitive at the structured inputs 0, 1 and -1 only, so each
        # grid point stops at the first uniform sequence of its first level
        draws = []

        class Counting(random.Random):
            def uniform(self, a, b):
                draws.append((a, b))
                return super().uniform(a, b)

        monkeypatch.setattr(oracle, "random", SimpleNamespace(Random=Counting))
        step = lambda x, u: x + math.sin(math.pi * u) ** 2
        levels = grid_scan_1d(
            step, (0.0, 1.0), (-1.0, 1.0), 2, grid=0.5, samples=10**6
        )
        assert levels == [[], []]
        assert len(draws) == 3 * 2  # one sequence of two inputs per grid point
