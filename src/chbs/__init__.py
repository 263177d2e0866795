"""Mass-conserving simulator for coupled bulk/boundary phase separation.

The package discretizes a conserved phase-field flow whose boundary carries
its own dynamics of the same type: P1 elements in the unit square coupled to
P1 elements on the closed boundary chain, a maximal monotone graph calculus
for the potentials with Yosida regularization, a backward-Euler convex-split
time stepper that conserves the combined bulk plus boundary mean exactly,
and an experiment harness checking conservation, two-run stability, and
vanishing-regularization behavior.
"""

from .domain import DiscreteDomain, build_unit_square
from .errors import (ChbsError, CompatibilityError, ConfigError,
                     NumericalError, StepError)
from .monotone import (GraphPair, GraphSpec, envelope, logarithmic_graph,
                       minimal_section, obstacle_graph, polynomial_graph,
                       resolvent, yosida)
from .scheme import (MonitorRecord, SchemeConfig, SchemeState, Trajectory,
                     initialize, run, step, weak_residuals)
from .spaces import (DualPair, FieldPair, apply_F, as_functional, form_a,
                     inner_H, inner_V, mean, norm_V0_star,
                     norm_V_star, pairing, poincare_constant,
                     project_zero_mean, solve_F_inverse, subgrad_phi)
from .verify import (AppendixReport, AprioriTable, ContDepReport,
                     EpsStudyReport, apriori_bound_table, appendix_checks,
                     continuous_dependence_experiment, vanishing_eps_study)

__version__ = "0.1.0"
