"""Pinned local minima: a speed-up must not change the answer the DC
iteration reaches.  The expected values were recorded with COLAMD-ordered
SuperLU factorizations and the loop-based mesh and greedy-scan code; they
must hold to 1e-10 relative."""

import pytest

from conftest import jittered_mesh
from dcl0.fem import assemble, build_structured_mesh
from dcl0.problems import (ControlConfig, control_reduced, default_load,
                           poisson_prototype)
from dcl0.solver import L0PenaltyConfig, solve_l0_penalized


def poisson_grid():
    system = assemble(build_structured_mesh(32), default_load)
    return poisson_prototype(system), system, None


def poisson_jitter_schedule():
    system = assemble(jittered_mesh(24, seed=7), default_load)
    return poisson_prototype(system), system, 0.9


def control_grid():
    system = assemble(build_structured_mesh(16))
    return control_reduced(system, ControlConfig()), system, None


def control_grid_64():
    system = assemble(build_structured_mesh(64))
    return control_reduced(system, ControlConfig()), system, None


# case, objective, l0, dc_iters
PINNED = [
    (poisson_grid, -0.007245442889798899, 0.23779296875, 2),
    (poisson_jitter_schedule, -0.017436447070982995, 0.24731888534066798, 14),
    (control_grid, 0.013076190661704692, 0.20703125, 2),
    # recorded with unpreconditioned conjugate gradients
    (control_grid_64, 0.011394769021735111, 0.244384765625, 2),
]


@pytest.mark.parametrize("case, objective, l0, dc_iters", PINNED,
                         ids=[case.__name__ for case, *_ in PINNED])
def test_pinned_solution(case, objective, l0, dc_iters):
    problem, system, schedule = case()
    sol = solve_l0_penalized(problem, system,
                             L0PenaltyConfig(K=0.25, schedule_lambda=schedule))
    assert sol.status == "converged_fixed_point"
    assert sol.objective == pytest.approx(objective, rel=1e-10, abs=0.0)
    assert sol.l0 == pytest.approx(l0, rel=1e-10, abs=0.0)
    assert sol.dc_iters == dc_iters
