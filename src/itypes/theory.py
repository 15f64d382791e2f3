"""Intersection-type theories as data: constant sets, rule flags, atom equations.

A theory is a finite constant set together with a selection of the special
subtyping axioms/rules (omega-top, nu-top, omega-eta, omega-lazy, arrow-inter,
eta) and an optional table equating atoms with intersections of arrows.
"""

from __future__ import annotations

import enum
import graphlib
import json
from functools import cached_property

from .errors import ItypesError, UnsupportedTheory
from .syntax import (
    Arrow,
    Atom,
    NU,
    OMEGA,
    Type,
    conjuncts,
    parse_type,
    print_type,
    type_atoms,
)


class Rule(str, enum.Enum):
    # a member equals its value, the rule's name in proof nodes; write it as
    # text by its value, as format() of a member changed in Python 3.12
    OMEGA_TOP = "omega-top"
    NU_TOP = "nu-top"
    OMEGA_ETA = "omega-eta"
    OMEGA_LAZY = "omega-lazy"
    ARROW_INTER = "arrow-inter"
    ETA = "eta"


BA_RULES = frozenset({Rule.ARROW_INTER, Rule.ETA})


class NamedTheory(enum.Enum):
    BA = "ba"
    EHR = "ehr"
    AO = "ao"
    BCD = "bcd"


# Entries per memo table.  A table that reaches the cap is cleared, which
# bounds the memory a long-running process spends on one theory.
TABLE_CAP = 1 << 18

# Whole-universe values kept per theory (oracle closures, leq matrices, type
# pools).  One can hold megabytes, so past this many the oldest goes.
RELATION_CAP = 8


class TheoryTables:
    """Memo tables of one theory, filled by the subtype decision and by
    normalisation.

    ``leq`` maps a left type ``a`` to its row, a dict from an atom or arrow
    ``b`` to the decision of ``a <= b`` (an intersection target is decided
    from its parts), and ``leq_size`` counts the decisions over all rows,
    which ``TABLE_CAP`` bounds; ``selection`` is the last head selection,
    ``(a, c, meet of the codomains of the heads of a whose domain c lies
    below, or None)``, so that arrow targets and filter applications with
    the same ``a`` and ``c`` select once; ``heads`` maps a type to its arrow
    heads, and ``head_proofs`` to those heads with their proofs, both filled
    by one walk; ``proofs`` is the proof row of the last left type ``a``
    that ``leq_trace`` was given, ``(a, dict from (lhs, rhs) to the proof
    built for it)``, which holds the subproofs of a's traces and is replaced
    for a new left type; ``omega_tails`` maps an arrow target to its proof
    of omega -> omega <= target by eta; ``canon`` maps a type to its
    canonical conjuncts; ``in_theory`` holds the types whose atoms the
    search has found in the theory.  Types are hash-consed, so the tables
    key on node identity.  Values over a whole universe, as the canonical
    types of one, are kept by ``TheorySpec.relation``.
    """

    __slots__ = ("leq", "leq_size", "selection", "heads", "head_proofs", "proofs",
                 "omega_tails", "canon", "in_theory")

    def __init__(self):
        self.leq: dict[Type, dict[Type, bool]] = {}
        self.leq_size = 0
        self.selection: tuple[Type, Type, Type | None] | None = None
        self.heads: dict[Type, tuple[Arrow, ...]] = {}
        self.head_proofs: dict[Type, tuple] = {}
        self.proofs: tuple[Type, dict] | None = None
        self.omega_tails: dict[Arrow, tuple] = {}
        self.canon: dict[Type, tuple[Type, ...]] = {}
        self.in_theory: set[Type] = set()


class TheorySpec:
    """A theory: its constants, rules and atom equations, and a display
    ``name`` that equality and hashing ignore.  Immutable; the memo tables
    and other derived values are cached on the instance, in ``__dict__``,
    and a theory nothing references is freed with them.

    What the decision, the search, the filters and the classification read
    of the theory is worked out once, when the spec is made: ``omega`` and
    ``nu`` are the nodes of those atoms, or None in a theory without them,
    and ``omega_arrow`` is omega -> omega, or None; ``equations`` maps an
    equated atom's name to its right side; ``plain_atoms`` are the other
    atoms, sorted; ``omega_eta`` and ``omega_lazy`` say whether the theory
    has those rules."""

    __slots__ = ("atoms", "rules", "atom_equations", "name", "omega", "nu",
                 "omega_arrow", "equations", "plain_atoms", "omega_eta",
                 "omega_lazy", "__dict__", "__weakref__")

    def __init__(
        self,
        atoms: frozenset[str],
        rules: frozenset[Rule],
        atom_equations: tuple[tuple[str, Type], ...] = (),
        name: str | None = None,
    ):
        omega = Atom(OMEGA) if OMEGA in atoms else None
        values = (
            atoms, rules, atom_equations, name, omega,
            Atom(NU) if NU in atoms else None,
            None if omega is None else Arrow(omega, omega),
            dict(atom_equations),
            tuple(sorted(atoms - {OMEGA, NU})),
            Rule.OMEGA_ETA in rules,
            Rule.OMEGA_LAZY in rules,
        )
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value):
        raise AttributeError("TheorySpec is immutable")

    def __delattr__(self, name):
        raise AttributeError("TheorySpec is immutable")

    def _key(self):
        return self.atoms, self.rules, self.atom_equations

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), (self.atoms, self.rules, self.atom_equations, self.name)

    def __repr__(self):
        return (
            f"TheorySpec(atoms={self.atoms!r}, rules={self.rules!r}, "
            f"atom_equations={self.atom_equations!r}, name={self.name!r})"
        )

    @property
    def has_omega(self) -> bool:
        return self.omega is not None

    @property
    def has_nu(self) -> bool:
        return self.nu is not None

    def universe_atoms(self, atoms) -> frozenset[str]:
        """atoms, with omega and nu where the theory has them: the atoms of
        a type universe over atoms."""
        return frozenset(atoms) | (self.atoms & {OMEGA, NU})

    @cached_property
    def tables(self) -> TheoryTables:
        """The memo tables for this theory, made once.  Making them checks
        that the decision applies: the spec must be valid, or the decision
        need not terminate, and have the base rules."""
        self.require_valid()
        if not validates_ba(self):
            raise UnsupportedTheory(
                "the subtype decision procedure needs the arrow-inter and eta rules"
            )
        return TheoryTables()

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """What ``validate`` finds wrong with this spec, found once."""
        return tuple(_violations(self))

    def require_valid(self) -> None:
        """Raise ``UnsupportedTheory`` naming the violations, if any."""
        if self.violations:
            names = ", ".join(v.value for v in self.violations)
            raise UnsupportedTheory(f"invalid theory spec: {names}")

    @cached_property
    def _relations(self) -> dict:
        return {}

    def relation(self, key, make):
        """``make()``, kept with this theory under ``key`` for later calls;
        past ``RELATION_CAP`` entries the oldest is dropped.  Nothing is
        validated, so the saturation oracle can use it on any spec."""
        table = self._relations
        value = table.get(key)
        if value is None:
            value = make()
            if len(table) >= RELATION_CAP:
                del table[next(iter(table))]
            table[key] = value
        return value


def make_spec(atoms, rules, equations=None, name=None) -> TheorySpec:
    """A spec from its parts; a rule may be given by its name, and an
    unknown name raises ItypesError."""
    eqs = tuple(sorted((equations or {}).items()))
    return TheorySpec(frozenset(atoms), _rules(rules, "the rule set"), eqs, name)


def _rules(names, where: str) -> frozenset:
    """The rules of the given names or members; ItypesError names the first
    unknown one, saying where it was given."""
    out = set()
    for r in names:
        try:
            out.add(Rule(r))
        except ValueError:
            raise ItypesError(f"{where} names an unknown rule {r!r}") from None
    return frozenset(out)


def named_theory(n: NamedTheory, extra_atoms: int = 0) -> TheorySpec:
    """The four standard theories; ``extra_atoms`` adds fresh atoms a, b, c,
    ... as a finite stand-in for an infinite supply of plain atoms."""
    if not 0 <= extra_atoms <= 26:
        raise ValueError(f"the fresh atom count must be 0 to 26, not {extra_atoms}")
    fresh = {chr(ord("a") + i) for i in range(extra_atoms)}
    match n:
        case NamedTheory.BA:
            return make_spec(fresh, BA_RULES, name="ba")
        case NamedTheory.EHR:
            return make_spec({NU} | fresh, BA_RULES | {Rule.NU_TOP}, name="ehr")
        case NamedTheory.AO:
            return make_spec(
                {OMEGA} | fresh,
                BA_RULES | {Rule.OMEGA_TOP, Rule.OMEGA_LAZY},
                name="ao",
            )
        case NamedTheory.BCD:
            return make_spec(
                {OMEGA} | fresh,
                BA_RULES | {Rule.OMEGA_TOP, Rule.OMEGA_ETA},
                name="bcd",
            )
    raise ValueError(n)


# ---------------------------------------------------------------- validation

class Violation(enum.Enum):
    OMEGA_NU_CONFLICT = "OmegaNuConflict"
    MISSING_ASSUMPTION_1 = "MissingAssumption1"
    MISSING_ASSUMPTION_2 = "MissingAssumption2"
    OMEGA_RULE_WITHOUT_OMEGA = "OmegaRuleWithoutOmega"
    NU_RULE_WITHOUT_NU = "NuRuleWithoutNu"
    BAD_EQUATION_KEY = "BadEquationKey"
    BAD_EQUATION_RHS = "BadEquationRhs"
    CYCLIC_EQUATIONS = "CyclicEquations"
    BAD_ATOM_NAME = "BadAtomName"


def validate(spec: TheorySpec) -> list[Violation]:
    """Well-formedness check; an empty list means the spec is usable."""
    return list(spec.violations)


def _violations(spec: TheorySpec) -> list[Violation]:
    out = []
    for a in spec.atoms:
        if not a or not a[0].isalpha() or not all(c.isalnum() or c == "_" for c in a):
            out.append(Violation.BAD_ATOM_NAME)
            break
    if spec.has_omega and spec.has_nu:
        out.append(Violation.OMEGA_NU_CONFLICT)
    if spec.has_omega and Rule.OMEGA_TOP not in spec.rules:
        out.append(Violation.MISSING_ASSUMPTION_1)
    if spec.has_nu and Rule.NU_TOP not in spec.rules:
        out.append(Violation.MISSING_ASSUMPTION_2)
    if (Rule.OMEGA_ETA in spec.rules or Rule.OMEGA_LAZY in spec.rules
            or Rule.OMEGA_TOP in spec.rules) and not spec.has_omega:
        out.append(Violation.OMEGA_RULE_WITHOUT_OMEGA)
    if Rule.NU_TOP in spec.rules and not spec.has_nu:
        out.append(Violation.NU_RULE_WITHOUT_NU)

    deps: dict[str, set[str]] = {}
    for key, rhs in spec.atom_equations:
        if key not in spec.atoms or key in (OMEGA, NU):
            out.append(Violation.BAD_EQUATION_KEY)
            continue
        if not type_atoms(rhs) <= spec.atoms:
            out.append(Violation.BAD_EQUATION_RHS)
            continue
        if not all(isinstance(c, Arrow) for c in conjuncts(rhs)):
            out.append(Violation.BAD_EQUATION_RHS)
            continue
        deps[key] = type_atoms(rhs)

    # the equation graph must be acyclic so expansion terminates; graphlib
    # finds a cycle on an explicit stack, so a long chain of equations is
    # bounded only by memory
    try:
        graphlib.TopologicalSorter(deps).prepare()
    except graphlib.CycleError:
        out.append(Violation.CYCLIC_EQUATIONS)
    return out


def validates_ba(spec: TheorySpec) -> bool:
    return BA_RULES <= spec.rules


# ---------------------------------------------------------------- JSON format

def spec_to_json(spec: TheorySpec) -> dict:
    return {
        "name": spec.name,
        "atoms": list(spec.plain_atoms),
        "omega": spec.has_omega,
        "nu": spec.has_nu,
        "rules": sorted(r.value for r in spec.rules),
        "equations": {k: print_type(v) for k, v in spec.atom_equations},
    }


def _strings(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


# what each field of a JSON spec must be, and a test of it
_JSON_FIELDS = {
    "atoms": ("a list of strings", _strings),
    "rules": ("a list of strings", _strings),
    "omega": ("a boolean", lambda v: type(v) is bool),
    "nu": ("a boolean", lambda v: type(v) is bool),
    "equations": (
        "an object from string to string",
        lambda v: type(v) is dict and _strings([*v, *v.values()]),
    ),
    "name": ("a string or null", lambda v: v is None or type(v) is str),
}


def spec_from_json(data: dict) -> TheorySpec:
    """The spec that ``spec_to_json`` wrote as data.  A field may be left
    out; one that is given must be one of ``_JSON_FIELDS``, with the shape
    it states and only known rules, or ItypesError names it.  ``omega``
    and ``nu`` are given only by their boolean fields, never in ``atoms``."""
    if type(data) is not dict:
        raise ItypesError("a theory spec must be a JSON object")
    for key in data:
        if key not in _JSON_FIELDS:
            raise ItypesError(f"theory spec has an unknown field {key!r}")
    for key, (shape, ok) in _JSON_FIELDS.items():
        if key in data and not ok(data[key]):
            raise ItypesError(f"theory spec field {key!r} must be {shape}")
    atoms = set(data.get("atoms", []))
    special = sorted(atoms & {OMEGA, NU})
    if special:
        raise ItypesError(
            f"theory spec field 'atoms' lists {special[0]!r}, "
            f"which only the field {special[0]!r} may give"
        )
    if data.get("omega"):
        atoms.add(OMEGA)
    if data.get("nu"):
        atoms.add(NU)
    rules = _rules(data.get("rules", []), "theory spec field 'rules'")
    probe = TheorySpec(frozenset(atoms), rules)
    equations = {
        k: parse_type(v, probe) for k, v in data.get("equations", {}).items()
    }
    return make_spec(atoms, rules, equations, data.get("name"))


def load_spec(path) -> TheorySpec:
    with open(path) as f:
        return spec_from_json(json.load(f))
