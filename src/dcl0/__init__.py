"""DC solver for support-measure (L0) constrained quadratic problems."""

from .fem import assemble, build_structured_mesh
from .problems import poisson_prototype
from .solver import L0PenaltyConfig, solve_l0_penalized

__version__ = "0.1.0"
