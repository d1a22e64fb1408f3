"""Pinned local minima: a speed-up must not change the answer the DC
iteration reaches.  The expected values were recorded with COLAMD-ordered
SuperLU factorizations and the loop-based mesh and greedy-scan code; they
must hold to 1e-10 relative."""

import pytest

from conftest import jittered_mesh
from dcl0.cli import main
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


# exact summary-CSV and iteration-CSV text of small CLI runs; sparsa has no
# iteration CSV
CLI_PINNED = {
    "poisson": (["poisson", "--n", "16"], """\
n,K,rho,f,l0,gap,dc_iters,ssn_iters,selection_mode
16,0.25,1000000000,-0.00540525303131,0.2421875,0,2,1,exact
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.25,-0.00540525303131,0,1,3.27881093308e-17
1,0.25,-0.00540525303131,0,0,3.27881093308e-17
"""),
    "poisson_schedule": (["poisson", "--n", "16", "--schedule", "0.9"], """\
n,K,rho,f,l0,gap,dc_iters,ssn_iters,selection_mode,schedule_lambda,sched_steps
16,0.25,1000000000,-0.0168219145974,0.248046875,1.04083408559e-17,14,13,exact,0.9,14
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.9,-0.0320256836259,0,1,1.15706768775e-16
1,0.81,-0.0312158281987,0,1,1.11074845776e-16
2,0.729,-0.0290112986835,6.93889390391e-18,1,1.03034950324e-16
3,0.6561,-0.0273618414674,6.93889390391e-18,1,8.9579904028e-17
4,0.59049,-0.0258276715108,0,1,1.03361377927e-16
5,0.531441,-0.024706955126,6.93889390391e-18,1,9.47500896868e-17
6,0.4782969,-0.0235899229048,3.46944695195e-18,1,1.06301364877e-16
7,0.43046721,-0.0230346932436,-3.46944695195e-18,1,1.07336672166e-16
8,0.387420489,-0.0225832403105,0,1,9.25936585148e-17
9,0.3486784401,-0.0215829105576,-3.46944695195e-18,1,7.09687967723e-17
10,0.31381059609,-0.0210439518927,-6.93889390391e-18,1,7.79637109736e-17
11,0.282429536481,-0.0185544491025,-3.46944695195e-18,1,8.13403125376e-17
12,0.254186582833,-0.0168219041891,1.04083408559e-17,1,5.77333330204e-17
13,0.25,-0.0168219041891,1.04083408559e-17,0,5.77333330204e-17
"""),
    # the zero-atom completion from a zero start
    "poisson_zero_start_plus": (
        ["poisson", "--n", "16", "--u0", "zero", "--zero-sign", "plus"], """\
n,K,rho,f,l0,gap,dc_iters,ssn_iters,selection_mode
16,0.25,1000000000,-0.000934889088539,0.16796875,4.33680868994e-19,2,2,exact
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.25,-0.000934888654858,4.33680868994e-19,2,1.54045680894e-17
1,0.25,-0.000934888654858,4.33680868994e-19,0,1.54045680894e-17
"""),
    "poisson_sign_of_load_schedule": (
        ["poisson", "--n", "16", "--zero-sign", "sign_of_load",
         "--schedule", "0.8"], """\
n,K,rho,f,l0,gap,dc_iters,ssn_iters,selection_mode,schedule_lambda,sched_steps
16,0.25,1000000000,-0.0166544117241,0.248046875,1.04083408559e-17,8,7,exact,0.8,7
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.8,-0.0290596148174,1.38777878078e-17,1,1.08220309358e-16
1,0.64,-0.0244742065716,0,1,8.57514134669e-17
2,0.512,-0.0211645483709,0,1,9.20517654258e-17
3,0.4096,-0.0190247148413,0,1,7.8609966178e-17
4,0.32768,-0.0183333222848,-3.46944695195e-18,1,7.12399209012e-17
5,0.262144,-0.0171692564882,3.46944695195e-18,1,5.95265501362e-17
6,0.25,-0.0166544013157,1.04083408559e-17,1,6.20451685437e-17
7,0.25,-0.0166544013157,1.04083408559e-17,0,6.20451685437e-17
"""),
    "control": (["control", "--n", "8"], """\
n,K,rho,alpha,beta,f,l0,gap,tracking_error,dc_iters,ssn_iters,selection_mode
8,0.25,1000000000,1e-07,1e-07,0.0205227369472,0.09375,3.5527136788e-15,0.1711505124,2,1,exact
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.25,0.0205262896609,3.5527136788e-15,1,3.03043719879e-20
1,0.25,0.0205262896609,3.5527136788e-15,0,3.03043719879e-20
"""),
    "sparsa": (["sparsa", "--n", "8"], """\
n,K,beta,f,l0,gap,iters
8,0.25,4.36,-0.0046080898268,0.234375,-8.67361737988e-19,13
""", None),
}


@pytest.mark.parametrize("name", list(CLI_PINNED))
def test_pinned_cli_text(name, tmp_path):
    argv, summary, iterations = CLI_PINNED[name]
    out, iters = tmp_path / "run.csv", tmp_path / "iters.csv"
    extra = [] if iterations is None else ["--iters-csv", str(iters)]
    assert main(argv + ["--csv", str(out), *extra]) == 0
    assert out.read_text() == summary
    if iterations is not None:
        assert iters.read_text() == iterations
