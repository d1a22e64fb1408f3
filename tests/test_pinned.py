"""Pinned local minima: a speed-up must not change the answer the DC
iteration reaches.

``PINNED`` must hold to 1e-10 relative.  Its values were recorded with the
code that preceded ``dcl0.ssn.factor_spd``: COLAMD-ordered SuperLU
factorizations and the loop-based mesh and greedy-scan code.

``CLI_PINNED`` must hold byte for byte.  Its texts were recorded with
``factor_spd`` (symmetric-mode ``MMD_AT_PLUS_A`` ordering) at scipy's
default SuperLU panel width of 20 columns, except the iteration texts of
``poisson_schedule``, ``poisson_sign_of_load_schedule`` and
``poisson_mesh_file_schedule``, re-recorded at ``ssn.PANEL_SIZE = 1``: the
narrower panels moved only their ``ssn_residual`` cells and rounding-level
``gap`` cells (with the ``objective`` cells that carry rho * gap).  The
texts of the four structured-grid ``poisson`` runs were re-recorded once
the mass-free stiffness stopped storing the grid's exactly-zero diagonal
couplings: the smaller pattern orders the factorizations differently and
moved the same kinds of cells only (gaps below 1e-16, every ``objective``
by rho times its gap's change).  The texts of ``control`` were re-recorded
once grid stiffness solves became dense products in the orthonormal sine
basis instead of FFT sine transforms; the new rounding moved these cells
only, in both BLAS thread counts 1 and 2:

- summary ``gap``: 3.5527136788e-15 -> 1.7763568394e-15;
- iteration rows 0 and 1, ``gap``: 3.5527136788e-15 -> 1.7763568394e-15;
- iteration rows 0 and 1, ``objective`` (carries rho * gap):
  0.0205262896609 -> 0.0205245133041;
- iteration rows 0 and 1, ``ssn_residual``:
  3.03043719879e-20 -> 2.71050543121e-20.

They were re-recorded again once the grid Hessian action kept its middle
factor ``A^-1 M A^-1`` in the sine basis
(``dcl0.fem._GridLaplacianSolver.mass_sandwich``); in both BLAS thread
counts 1 and 2 these cells moved, and ``f``, ``l0`` and
``tracking_error`` kept their digits:

- summary ``gap``: 1.7763568394e-15 -> 0;
- iteration rows 0 and 1, ``gap``: 1.7763568394e-15 -> 0;
- iteration rows 0 and 1, ``objective`` (carries rho * gap):
  0.0205245133041 -> 0.0205227369472, now equal to the summary ``f``;
- iteration rows 0 and 1, ``ssn_residual``: 2.71050543121e-20 -> 0."""

import numpy as np
import pytest

from conftest import jittered_mesh
from dcl0.cli import main
from dcl0.fem import assemble, build_structured_mesh, export_mesh, write_field
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


#: argv placeholders for a mesh file and a zero start field (n=16) the test
#: writes first
MESH_FILE = "jittered-12-seed-7.txt"
ZERO_FIELD = "zero-16.txt"

# exact summary-CSV and iteration-CSV text of small CLI runs; sparsa and
# sweep have no iteration CSV
CLI_PINNED = {
    "poisson": (["poisson", "--n", "16"], """\
n,K,rho,f,l0,gap,dc_iters,ssn_iters,selection_mode
16,0.25,1000000000,-0.00540525303131,0.2421875,8.67361737988e-19,2,1,exact
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.25,-0.00540525216395,8.67361737988e-19,1,3.37825984099e-17
1,0.25,-0.00540525216395,8.67361737988e-19,0,3.37825984099e-17
"""),
    "poisson_schedule": (["poisson", "--n", "16", "--schedule", "0.9"], """\
n,K,rho,f,l0,gap,dc_iters,ssn_iters,selection_mode,schedule_lambda,sched_steps
16,0.25,1000000000,-0.0168219145974,0.248046875,1.04083408559e-17,14,13,exact,0.9,14
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.9,-0.032025676687,6.93889390391e-18,1,1.09227429817e-16
1,0.81,-0.0312158281987,0,1,1.10613318981e-16
2,0.729,-0.0290112986835,6.93889390391e-18,1,1.05040251633e-16
3,0.6561,-0.0273618345285,1.38777878078e-17,1,9.94925494628e-17
4,0.59049,-0.0258276784497,-6.93889390391e-18,1,8.80784651749e-17
5,0.531441,-0.024706955126,6.93889390391e-18,1,8.00008972591e-17
6,0.4782969,-0.0235899263743,0,1,7.71232871133e-17
7,0.43046721,-0.0230346932436,-3.46944695195e-18,1,7.79383767329e-17
8,0.387420489,-0.0225832472494,-6.93889390391e-18,1,7.63783302037e-17
9,0.3486784401,-0.0215829070882,0,1,9.03337574988e-17
10,0.31381059609,-0.0210439484233,-3.46944695195e-18,1,8.48575057051e-17
11,0.282429536481,-0.018554452572,-6.93889390391e-18,1,7.054216275e-17
12,0.254186582833,-0.0168219041891,1.04083408559e-17,1,7.6870469247e-17
13,0.25,-0.0168219041891,1.04083408559e-17,0,7.6870469247e-17
"""),
    # the zero-atom completion from a zero start
    "poisson_zero_start_plus": (
        ["poisson", "--n", "16", "--u0-file", ZERO_FIELD,
         "--zero-sign", "plus"], """\
n,K,rho,f,l0,gap,dc_iters,ssn_iters,selection_mode
16,0.25,1000000000,-0.000934889088539,0.16796875,0,2,2,exact
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.25,-0.000934889088539,0,2,1.79320984017e-17
1,0.25,-0.000934889088539,0,0,1.79320984017e-17
"""),
    "poisson_sign_of_load_schedule": (
        ["poisson", "--n", "16", "--zero-sign", "sign_of_load",
         "--schedule", "0.8"], """\
n,K,rho,f,l0,gap,dc_iters,ssn_iters,selection_mode,schedule_lambda,sched_steps
16,0.25,1000000000,-0.0166544117241,0.248046875,1.04083408559e-17,8,7,exact,0.8,7
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.8,-0.0290596217563,6.93889390391e-18,1,1.101457497e-16
1,0.64,-0.0244742065716,0,1,8.07646934133e-17
2,0.512,-0.0211645518404,-3.46944695195e-18,1,7.11196958111e-17
3,0.4096,-0.0190247148413,0,1,5.982910126e-17
4,0.32768,-0.0183333222848,-3.46944695195e-18,1,5.88401223791e-17
5,0.262144,-0.0171692634271,-3.46944695195e-18,1,5.78602446516e-17
6,0.25,-0.0166544013157,1.04083408559e-17,1,6.42374919274e-17
7,0.25,-0.0166544013157,1.04083408559e-17,0,6.42374919274e-17
"""),
    "control": (["control", "--n", "8"], """\
n,K,rho,alpha,beta,f,l0,gap,tracking_error,dc_iters,ssn_iters,selection_mode
8,0.25,1000000000,1e-07,1e-07,0.0205227369472,0.09375,0,0.1711505124,2,1,exact
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.25,0.0205227369472,0,1,0
1,0.25,0.0205227369472,0,0,0
"""),
    "sparsa": (["sparsa", "--n", "8"], """\
n,K,beta,f,l0,gap,iters
8,0.25,4.36,-0.0046080898268,0.234375,-8.67361737988e-19,13
""", None),
    # the warm-started second solve runs with no schedule steps to wait for
    "sweep": (["sweep", "--n", "8", "--rhos", "1e3,1e9"], """\
n,K,rho,f,l0,gap,dc_iters,ssn_iters,selection_mode
8,0.25,1000,0,0,0,2,1,exact
8,0.25,1000000000,0,0,0,1,0,exact
""", None),
    # greedy selection under a schedule; MESH_FILE is jittered_mesh(12, seed=7)
    "poisson_mesh_file_schedule": (
        ["poisson", "--mesh-file", MESH_FILE, "--schedule", "0.9"], """\
n,K,rho,f,l0,gap,dc_iters,ssn_iters,selection_mode,schedule_lambda,sched_steps
,0.25,1000000000,-0.0156501047746,0.249518728356,-3.46944695195e-18,14,17,greedy,0.9,14
""", """\
k,K_k,objective,gap,newton_iters,ssn_residual
0,0.9,-0.0303976412577,-6.93889390391e-18,2,1.10311910144e-16
1,0.81,-0.0295835754928,-6.93889390391e-18,2,1.22469358124e-16
2,0.729,-0.02729348618,6.93889390391e-18,2,1.16966070002e-16
3,0.6561,-0.0251916551483,0,1,6.23716924926e-17
4,0.59049,-0.0243060314762,0,2,1.0432887161e-16
5,0.531441,-0.0224760938131,0,1,1.19384395567e-16
6,0.4782969,-0.0216342254636,3.46944695195e-18,1,1.17798453778e-16
7,0.43046721,-0.0209614435942,6.93889390391e-18,1,1.16965266009e-16
8,0.387420489,-0.0206646570171,3.46944695195e-18,1,1.16552893381e-16
9,0.3486784401,-0.0203634105203,6.93889390391e-18,1,1.16449572052e-16
10,0.31381059609,-0.0191441046032,0,1,6.92369843523e-17
11,0.282429536481,-0.0176077504994,3.46944695195e-18,1,6.94322935819e-17
12,0.254186582833,-0.015650108244,-3.46944695195e-18,1,6.78984153304e-17
13,0.25,-0.015650108244,-3.46944695195e-18,0,6.78984153304e-17
"""),
}


@pytest.mark.parametrize("name", list(CLI_PINNED))
def test_pinned_cli_text(name, tmp_path):
    argv, summary, iterations = CLI_PINNED[name]
    if MESH_FILE in argv:
        export_mesh(jittered_mesh(12, seed=7), tmp_path / MESH_FILE)
    if ZERO_FIELD in argv:
        write_field(tmp_path / ZERO_FIELD, np.zeros(17 * 17))
    argv = [str(tmp_path / a) if a in (MESH_FILE, ZERO_FIELD) else a
            for a in argv]
    out, iters = tmp_path / "run.csv", tmp_path / "iters.csv"
    extra = [] if iterations is None else ["--iters-csv", str(iters)]
    assert main(argv + ["--csv", str(out), *extra]) == 0
    assert out.read_text() == summary
    if iterations is not None:
        assert iters.read_text() == iterations
