"""Zero-sum invariants of finite abelian groups.

Closed-form evaluators, pruned exhaustive search oracles, extremal sequence
constructions, exhaustive theorem checkers, and verifiable JSON certificates
tying them together.

``import zerosum`` loads none of these: each name below loads its module
when it is first used (PEP 562).
"""

from ._version import VERSION as __version__

# module -> the names it exports
_EXPORTS = {
    "errors": ("ZeroSumError", "InvalidGroupError", "UnsupportedGroupError",
               "UndefinedHeightError", "NotApplicableError", "NeedsOracleError",
               "BudgetExceededError", "InternalCheckError", "CertificateError"),
    "groups": ("AbelianGroup", "GroupElement", "normalize_group"),
    "sequences": ("GSequence", "SubsumTable", "subsums", "definitional_subsums",
                  "cross_number", "order_filter", "max_order_count"),
    "formulas": ("DivisorPair", "GammaBounds", "d_star", "k_star", "davenport_p_group",
                 "little_cross_p_group", "davenport_closed_form", "upsilon_vector",
                 "reduced_group", "j0", "gamma_lower", "gamma_upper",
                 "gamma_exact_formula", "gamma_bounds", "divisor_pairs"),
    "_budget": ("SearchBudget",),
    "search": ("enumerate_zero_sumfree", "zero_sumfree_extrema", "longest_avoiding",
               "d_pair_bruteforce", "gamma_exact", "davenport_constant", "d_pair_value"),
    "constructions": ("standard_basis", "dstar_sequence", "kstar_sequence",
                      "gamma_extremal_sequence"),
    "verifier": ("CheckReport", "check_cross_number_conjecture", "check_dual_conjecture",
                 "check_order_divisibility", "check_heights", "check_corollary_max_order",
                 "check_gamma_conjecture"),
    "certificates": ("VerificationOutcome", "write_certificate", "load_certificate",
                     "verify_certificate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
