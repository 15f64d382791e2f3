"""Classification of theories: strictness, naturality, the functional-type
predicate, F-type theories, and an adequacy report for the three semantics
(type inference, simple, and the functional one).

F-type status is a three-valued answer: the general definition quantifies over
all types, so outside the recognized shapes and syntactic sufficient
conditions the honest verdict is Unknown.
"""

from __future__ import annotations

from collections import namedtuple

from . import _lazy
from .errors import Verdict
from .syntax import Arrow, Atom, Type, conjuncts
from .theory import TheorySpec, validates_ba

# perfbench/tracing.py wraps itypes.classify.leq, which nothing here calls;
# it loads on first use, so classify loads no subtype of its own
__getattr__ = _lazy(globals(), {"subtype": ("leq",)})


def is_strict(spec: TheorySpec) -> bool:
    spec.require_valid()
    return not spec.has_omega and validates_ba(spec)


def is_natural(spec: TheorySpec) -> bool:
    """omega is a top type and abstractions are lazily typed.  A valid spec
    with omega has omega-top; omega-eta counts for omega-lazy, since with
    (eta) it yields the lazy axiom."""
    spec.require_valid()
    return (
        spec.has_omega
        and validates_ba(spec)
        and (spec.omega_lazy or spec.omega_eta)
    )


def fun_predicate(spec: TheorySpec, a: Type) -> Verdict:
    """Whether a is a functional type: an arrow, an intersection with a
    functional conjunct, or an atom equivalent to one.  Always YES or NO."""
    spec.require_valid()
    found = any(_fun_conjunct(spec, c) for c in conjuncts(a))
    return Verdict.YES if found else Verdict.NO


def _fun_conjunct(spec: TheorySpec, a: Type) -> bool:
    match a:
        case Arrow():
            return True
        case Atom(name):
            # in a valid spec no other atom is equivalent to nu or omega
            return (
                a is spec.nu
                or name in spec.equations
                or (spec.omega_eta and a is spec.omega)
            )
    raise TypeError(a)


def is_f_type_theory(spec: TheorySpec) -> Verdict:
    """Whether every type's functional behaviour is witnessed by arrows."""
    spec.require_valid()
    strict = is_strict(spec)
    if not strict and not is_natural(spec):
        return Verdict.NO
    if all(a in spec.equations for a in spec.plain_atoms):
        return Verdict.YES
    if spec.omega_eta or spec.has_nu:
        # with omega-eta, omega decomposes via omega ~ omega -> omega; nu
        # lies below no plain atom: each plain atom needs an arrow equation
        return Verdict.NO
    if strict and not spec.atom_equations:
        # plain-atom theories over the base rules are known to qualify
        return Verdict.YES
    return Verdict.UNKNOWN


class AdequacyReport(
    namedtuple(
        "AdequacyReport",
        "strict natural inference_adequate simple_adequate f_type_theory notes",
        defaults=((),),
    )
):
    """Which adequacy results apply to a theory, with a note on each."""

    __slots__ = ()

    @property
    def f_adequate(self) -> Verdict:
        """Functional semantics adequacy, which holds exactly for F-type
        theories."""
        return self.f_type_theory

    def to_json(self) -> dict:
        return {
            "strict": self.strict,
            "natural": self.natural,
            "inference_adequate": self.inference_adequate,
            "simple_adequate": self.simple_adequate,
            "f_type_theory": self.f_type_theory.value,
            "f_adequate": self.f_adequate.value,
            "notes": list(self.notes),
        }


def adequacy_report(spec: TheorySpec) -> AdequacyReport:
    spec.require_valid()
    strict = is_strict(spec)
    natural = is_natural(spec)
    inference = strict or natural
    simple = (strict and not spec.has_nu) or (natural and spec.omega_eta)
    f_type = is_f_type_theory(spec)

    notes = []
    if strict:
        notes.append("strict: no omega and the base arrow rules hold")
    elif natural:
        notes.append("natural: omega is a top type and abstractions are lazily typed")
    else:
        notes.append("neither strict nor natural: no adequacy guarantees apply")
    notes.append(
        "type inference semantics: adequate iff the theory is strict or natural"
    )
    if simple:
        notes.append(
            "simple semantics: adequate (strict without nu, or natural with "
            "omega equivalent to omega -> omega)"
        )
    else:
        notes.append(
            "simple semantics: not adequate (nu distinguishes abstractions, or "
            "omega is not equivalent to omega -> omega)"
        )
    match f_type:
        case Verdict.YES:
            notes.append(
                "functional semantics: adequate; every functional type is "
                "witnessed by arrows"
            )
        case Verdict.NO:
            notes.append(
                "functional semantics: not adequate; some atom has functional "
                "behaviour with no arrow decomposition"
            )
        case Verdict.UNKNOWN:
            notes.append(
                "functional semantics: undetermined for this spec shape"
            )
    return AdequacyReport(strict, natural, inference, simple, f_type, notes)

