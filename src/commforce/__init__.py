"""Decide whether polynomial identities force rings to be commutative."""

from .commalg import (CPoly, field_ideal_normal_form, frobenius_scale,
                      trial_factor, univ, value_gcd)
from .decide import (DecideOptions, IdentitySet, PresentedWitness,
                     PrimeConstraint, Verdict, candidate_primes, decide_Ap,
                     decide_B, decide_Up, decide_all, presented_scan_check,
                     verify)
from .errors import ResourceLimitError
from .finitering import (B, Fq, Mat, MinRing, Presented, TabledRing,
                         TruncFree, Up, family_from_json, family_json,
                         least_irreducible, make_ring)
from .freealg import (ApForm, CaseIForm, NcPoly, abelianize, bar_transversal,
                      commutator, format_ncpoly, from_cpoly, reduce_Ap,
                      reduce_caseI)
from .gsb import GsBasis, GsPoly, complete, is_commutative_presentation
from .oracle import (CrossReport, RandomProfile, SearchBounds, cross_validate,
                     identity_digest, random_identities, witness_search)
from .theorems import (MinRingCertificate, MultilinearProfile,
                       NotIdentityReport, central_decide, freshman_decide,
                       herstein_pair, is_multilinear, min_ring_certify,
                       multilinear_decide, power_identity_decide,
                       theta_profile, univariate_decide)

__version__ = "0.1.0"
