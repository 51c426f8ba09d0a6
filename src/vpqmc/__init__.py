"""Vlasov-Poisson solvers with quasi-Monte-Carlo sampling.

Eulerian (Fourier split-step) and Lagrangian (geometric PIC) solvers for
the periodic 1x1v Vlasov-Poisson system, plus the machinery that couples
them: Sobol/pseudo-random pair generation, exact star discrepancy,
bilinear Rosenblatt inverse-transform sampling, spline density
estimation, and the spectral-to-PIC handoff.
"""

from .core import (AllZeroDensity, DiagnosticsRecord, GriddedDensity,
                   InitialCondition, ParticleEnsemble, PhaseSpaceDomain,
                   eval_initial_f, normalize_to_sampling_density)
from .lowdisc import (EmptyPointSet, PseudoRandom, Sobol, generate_pairs,
                      star_discrepancy, star_discrepancy_in_window)
from .sampling import (BilinearSampler, NewtonNoConvergence, ZeroConditional,
                       build_sampler, forward_cdf, its_tensor_product,
                       rosenblatt_sample, sample_conditional_v,
                       sample_gridded_density, sample_marginal_x,
                       uniform_sample)
from .spectral import (RUTH3, SpectralState, advance, advect_x, hk_variation,
                       kick_v, poisson_fourier, run_spectral, step_order3,
                       zero_pad)
from .pic import (FieldSolution, FixedPointDiverged, IntegratorKind,
                  SplinePoissonSolver, deposit_rhs, discrete_entropy,
                  eval_E, push, solve_poisson_fem)
from .densest import (LinearSplineBasis2D, SingularSystem, bilinear_ridge_fit,
                      osde_linear)
from .coupling import HandoffConfig, handoff, run_coupled, run_pic
from .driver import RunConfig, cli_main, parse_config

__version__ = "0.1.0"
