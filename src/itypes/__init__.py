"""Intersection-type theories for the untyped lambda calculus: subtyping with
checkable proof traces, type assignment with bounded search, finitely
generated filters, and theory classification."""

import importlib

# The public names by home module.  Each module loads on first use of one of
# its names (PEP 562), so a caller pays only for the modules it touches:
# ``from itypes import parse_type, named_theory`` loads syntax and theory.
_EXPORTS = {
    "errors": (
        "EmptyEnvFilter",
        "ItypesError",
        "ParseError",
        "ResourceLimit",
        "UnknownAtomError",
        "UnsupportedTheory",
        "Verdict",
    ),
    "syntax": (
        "App",
        "Arrow",
        "Atom",
        "Inter",
        "Lam",
        "NU",
        "OMEGA",
        "Term",
        "Type",
        "Var",
        "alpha_eq",
        "parse_term",
        "parse_type",
        "print_term",
        "print_type",
    ),
    "theory": (
        "NamedTheory",
        "Rule",
        "TheorySpec",
        "load_spec",
        "make_spec",
        "named_theory",
        "spec_from_json",
        "spec_to_json",
        "validate",
    ),
    "subtype": (
        "OracleResult",
        "Proof",
        "canonical",
        "check_proof",
        "enumerate_types",
        "eq",
        "leq",
        "leq_oracle",
        "leq_trace",
        "normalize",
    ),
    "assign": (
        "Derivation",
        "SearchBudget",
        "check_derivation",
        "derivation_from_json",
        "derivation_to_json",
        "derives",
        "infer_types",
    ),
    "filters": (
        "FiniteFilter",
        "apply",
        "interpret_member",
        "make_abstraction_filter",
        "member",
        "phi_membership",
        "up",
    ),
    "classify": (
        "AdequacyReport",
        "adequacy_report",
        "fun_predicate",
        "is_f_type_theory",
        "is_natural",
        "is_strict",
    ),
    "search_laws": ("hindley_rule_check",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(namespace: dict, homes: dict):
    """A module ``__getattr__`` for the module whose globals are namespace.
    It imports each name of homes, a map from an itypes module to names,
    from that module on first use, and keeps it in namespace, so that later
    lookups, and a wrapper set on the module, skip this function."""
    home = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy(globals(), _EXPORTS)


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = sorted(_HOME)
