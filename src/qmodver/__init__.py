"""Exact q-series arithmetic and modular identity verification for the
supertrace characters of the rank-1 lattice vertex operator superalgebra."""

from .series import (COMPLEX, EXACT, BeyondTruncationError, DomainPromotionRequired,
                     EvalResult, EvaluationError, InsufficientConvergence,
                     NonInvertibleError, NotInUpperHalfPlane, PuiseuxSeries,
                     SeriesError, WrongDomainError)
from .specfun import (InvalidTwistError, TwistParams, bernoulli_number,
                      bernoulli_poly, dedekind_eta, distinct_parts_product,
                      divisor_sigma, eisenstein, jacobi_theta, partition_gf,
                      q_twisted)
from .modgroup import (IDENTITY, S, T, ModularMatrix, SectorPair, act_on_pair,
                       is_in_gamma, mobius, slash_factor)
from .lattice import (CENTRAL_CHARGE, CharacterData, character, eta_theta_form,
                      l0_inserted_trace, lattice_sum)
from .verify import (CheckReport, TransformSpec, check_series_equal,
                     check_transform_numeric, closure_scan, run_suite)

__version__ = "0.1.0"
