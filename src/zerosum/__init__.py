"""Zero-sum invariants of finite abelian groups.

Closed-form evaluators, pruned exhaustive search oracles, extremal sequence
constructions, exhaustive theorem checkers, and verifiable JSON certificates
tying them together.
"""

from ._version import VERSION as __version__
from .errors import (BudgetExceededError, CertificateError, InternalCheckError,
                     InvalidGroupError, NeedsOracleError, NotApplicableError,
                     UndefinedHeightError, UnsupportedGroupError, ZeroSumError)
from .groups import AbelianGroup, GroupElement, normalize_group
from .sequences import (GSequence, SubsumTable, cross_number,
                        definitional_subsums, max_order_count, order_filter,
                        subsums)
from .formulas import (DivisorPair, GammaBounds, d_star, davenport_closed_form,
                       davenport_p_group, divisor_pairs, gamma_bounds,
                       gamma_exact_formula, gamma_lower, gamma_upper, j0,
                       k_star, little_cross_p_group, reduced_group,
                       upsilon_vector)
from .search import (SearchBudget, d_pair_bruteforce, d_pair_value,
                     davenport_constant, enumerate_zero_sumfree, gamma_exact,
                     longest_avoiding, zero_sumfree_extrema)
from .constructions import (dstar_sequence, gamma_extremal_sequence,
                            kstar_sequence, standard_basis)
from .verifier import (CheckReport, check_corollary_max_order,
                       check_cross_number_conjecture, check_dual_conjecture,
                       check_gamma_conjecture, check_heights,
                       check_order_divisibility)
from .certificates import (VerificationOutcome, load_certificate, verify_certificate,
                           write_certificate)

__all__ = [
    "__version__",
    # errors
    "ZeroSumError", "InvalidGroupError", "UnsupportedGroupError",
    "UndefinedHeightError", "NotApplicableError", "NeedsOracleError",
    "BudgetExceededError", "InternalCheckError", "CertificateError",
    # groups
    "AbelianGroup", "GroupElement", "normalize_group",
    # sequences
    "GSequence", "SubsumTable", "subsums", "definitional_subsums",
    "cross_number", "order_filter", "max_order_count",
    # formulas
    "DivisorPair", "GammaBounds", "d_star", "k_star", "davenport_p_group",
    "little_cross_p_group", "davenport_closed_form", "upsilon_vector",
    "reduced_group", "j0", "gamma_lower", "gamma_upper",
    "gamma_exact_formula", "gamma_bounds", "divisor_pairs",
    # search
    "SearchBudget", "enumerate_zero_sumfree",
    "zero_sumfree_extrema", "longest_avoiding",
    "d_pair_bruteforce", "gamma_exact", "davenport_constant", "d_pair_value",
    # constructions
    "standard_basis", "dstar_sequence", "kstar_sequence",
    "gamma_extremal_sequence",
    # verifier
    "CheckReport", "check_cross_number_conjecture", "check_dual_conjecture",
    "check_order_divisibility", "check_heights", "check_corollary_max_order",
    "check_gamma_conjecture",
    # certificates
    "VerificationOutcome", "write_certificate", "load_certificate",
    "verify_certificate",
]
