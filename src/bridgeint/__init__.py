"""Path integrals along high-dimensional Brownian bridges and free Brownian motion.

The package computes occupation-type functionals int_0^t v(X_s) ds of a
bounded, compactly supported potential v, where X is either a Brownian
bridge or an unconstrained Brownian motion in dimension d >= 3.  It provides
exact Gaussian laws, Monte Carlo estimators with standard errors,
deterministic quadrature oracles for low-order moments, and experiment
harnesses that measure convergence of the bridge integral to its
long-horizon limits.
"""

from .gaussian import (
    TimePoints,
    transition_density,
    log_transition_density,
    bridge_marginal,
    density_ratio,
    jensen_lower_bound,
)
from .potentials import Potential
from .green import BoundsReport, k1_bound
from .path_sim import (
    TimeGrid,
    bridge_integral_batch,
    free_integral_batch,
)
from .estimators import (
    McEstimate,
    MgfCurve,
    EstimatorConfig,
    mc_moment,
    mc_mgf,
    alpha1_divergence_probe,
    bloch_green,
)
from .quadrature import (
    QuadConfig,
    moment_free,
    moment_bridge,
    moment_two_sided,
    horizon_moment_gap,
)
from .convergence import (
    SweepPlan,
    ConvergenceReport,
    run_theorem1,
    run_theorem2,
    run_lemma4,
    density_ratio_sweep,
)

__all__ = [
    "TimePoints",
    "transition_density",
    "log_transition_density",
    "bridge_marginal",
    "density_ratio",
    "jensen_lower_bound",
    "Potential",
    "BoundsReport",
    "k1_bound",
    "alpha1_divergence_probe",
    "TimeGrid",
    "bridge_integral_batch",
    "free_integral_batch",
    "McEstimate",
    "MgfCurve",
    "EstimatorConfig",
    "mc_moment",
    "mc_mgf",
    "bloch_green",
    "QuadConfig",
    "moment_free",
    "moment_bridge",
    "moment_two_sided",
    "horizon_moment_gap",
    "SweepPlan",
    "ConvergenceReport",
    "run_theorem1",
    "run_theorem2",
    "run_lemma4",
    "density_ratio_sweep",
]

__version__ = "0.1.0"
