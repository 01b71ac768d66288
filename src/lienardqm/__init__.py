"""Deformed nonlinear oscillator toolkit.

Classical dynamics of the cubic momentum-bounded oscillator, its symmetric-
ordering quantization in momentum space, the factorization (shape-invariance)
solution for spectrum and eigenfunctions, and independent numerical oracles
for every analytic result: fixed-step RK4 against the closed-form orbit,
Chebyshev collocation (and, for the acceptance criteria, a Sturm-bisection
finite-difference eigensolver) against the algebraic spectrum, and
composite Gauss-Legendre quadrature against the normalization constants.
"""

__version__ = "0.1.0"

from .classical import (OscillatorState, Trajectory, analytic_solution,
                        analytic_velocity, conjugate_momentum,
                        hamiltonian_classical, integrate_lienard,
                        jlm_condition_residual, jlm_sigma_roots, lagrangian,
                        lienard_rhs, phase_constraint_value)
from .eigensolver import (TridiagonalOperator, YGrid, build_operator,
                          collocation_levels, lowest_eigenvalues,
                          verify_spectrum)
from .errors import (AmplitudeRangeError, ConstraintViolationError,
                     ConvergenceError, DomainError, GridMismatchError,
                     LienardError, OverflowGuardError)
from .kernels import BACKEND as kernel_backend
from .params import (AmbiguityParams, DerivedParams, PhysicalParams,
                     derive_params, momentum_domain)
from .quantize import (MassProfile, MomentumGrid, SampledFunction,
                       apply_hamiltonian_fd, effective_potential, mass,
                       potential_U, von_roos_potential)
from .susy import (SpectrumTable, Superpotential, apply_lowering,
                   apply_raising, ground_state_closed_form,
                   ground_state_energy, partner_potentials, riccati_residual,
                   shape_invariance_remainder, spectrum,
                   superpotential_eval)
from .wavefn import (gamma_asymptotic_check, laguerre_hermite_limit, lho_psi,
                     limit_deviation, norm_const_log, overlap_matrix, psi,
                     support_window)
