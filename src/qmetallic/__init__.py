"""Exact power-series coefficients of q-deformed metallic numbers.

The deformation [x]_q of a real number x is a Laurent series in q with
integer coefficients, built from the alternating continued fraction of
x.  For the metallic family phi_n = (n + sqrt(n^2+4))/2 this package
computes the coefficients kappa_l by four independent engines, verifies
the functional equation, linear recurrence, ODE, identity suite, and
Hankel properties, reproduces the singularity-analysis ratio tables,
counts the matching RNA secondary structures, and classifies the
log-behaviour of the coefficient sequences -- all in exact arithmetic
except the explicitly multiprecision asymptotics.
"""

from .errors import (BadConstantTerm, BranchCut, BranchMismatch,
                     BudgetExceeded, CacheCorrupt, ImaginaryResidual,
                     InsufficientOrder, MultipleRoot, NoConvergence,
                     NonExactDivision, NonIntegralCoefficient,
                     NonIntegralResult, NoStabilization,
                     NotMonomialDenominator, QMetallicError, ZeroSeries)
from .series import (INF, LaurentSeries, constant, format_q, from_json,
                     monomial, poly_coeffs, poly_divexact, poly_gcd, reversal,
                     series_div, series_inverse, series_mul, series_sqrt,
                     to_json, zero)
from .qnum import (PeriodicCF, QRational, QuadraticForm, cf_to_text, negate,
                   neg_reciprocal, parse_cf, q_integer, q_rational,
                   q_real_truncated, quantize_quadratic, rational_cf,
                   rational_value, reciprocal, shift)
from .metallic import (ENGINE_TAGS, CheckResult, CoeffTable, RecurrenceSpec,
                       coeffs_closed_form, coeffs_convolution,
                       coeffs_p_recurrence, coeffs_sqrt, hankel, kappa,
                       kappa_values, phi_series, poly_P, poly_Q, poly_R,
                       recurrence_spec, table_engine,
                       verify_functional_equation, verify_ode)
from .dyadic import Dyadic, DyadicComplex, nstr
from .asymptotics import (SingularityReport, all_roots, gamma_coeff,
                          leading_term, radius, ratio_table, ratio_values,
                          roots_Q, singularity_report)
from .identities import (IDENTITY_IDS, IdentityReport, alpha_poly, check_all,
                         check_rel, conjugate_onset, conjugate_pair_check,
                         laurent_family, min_order, mult_inverse_check,
                         reflection_check)
from .rna import (count_structures, enumerate_structures, family_divergence,
                  generate_structures, motzkin_values, rna_closed_form,
                  rna_p_recurrence_check, rna_recurrence, sign_bridge_check)
from .logbehaviour import LogReport, classify, sign_flip_lemma_check
from .cache import (RunManifest, cache_directory, cache_load, cache_store,
                    cached_table)

__version__ = "0.1.0"
