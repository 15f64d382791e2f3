"""Finitely generated filters of types and the filter applicative structure.

Every representable filter is principal: a finite generating set collapses to
the intersection of its members, so a filter is either the upward closure of a
single generator or the closure of the empty set (which is the whole of
``up(omega)`` when omega is a constant, and empty otherwise).
"""

from __future__ import annotations

from collections import namedtuple

from .assign import SearchBudget, Verdict, derives
from .errors import EmptyEnvFilter
from .subtype import arrow_heads, canonical, leq
from .syntax import Arrow, Term, Type, free_vars, inter_of
from .theory import TheorySpec


class FiniteFilter(namedtuple("FiniteFilter", "generator", defaults=(None,))):
    """Upward closure of ``generator``; ``None`` encodes the closure of the
    empty set."""

    __slots__ = ()


def up(*generators: Type) -> FiniteFilter:
    """The filter generated by a finite set of types."""
    if not generators:
        return FiniteFilter(None)
    return FiniteFilter(inter_of(list(generators)))


def member(spec: TheorySpec, x: FiniteFilter, a: Type) -> bool:
    if x.generator is None:
        return spec.has_omega and leq(spec, spec.omega, a)
    return leq(spec, x.generator, a)


def filter_leq(spec: TheorySpec, x: FiniteFilter, y: FiniteFilter) -> bool:
    """Subset order on filters: every member of x is a member of y."""
    if x.generator is None:
        return True if not spec.has_omega else member(spec, y, spec.omega)
    return member(spec, y, x.generator)


def apply(spec: TheorySpec, x: FiniteFilter, y: FiniteFilter) -> FiniteFilter:
    """Filter application: the filter of all B with A -> B in x for some A in y."""
    gen = x.generator
    if gen is None:
        if not spec.has_omega:
            return FiniteFilter(None)
        gen = spec.omega
    cods = [h.cod for h in arrow_heads(spec, gen) if member(spec, y, h.dom)]
    if not cods:
        return FiniteFilter(None)
    return FiniteFilter(canonical(spec, inter_of(cods)))


def make_abstraction_filter(spec: TheorySpec, table) -> FiniteFilter:
    """The filter of a finite step function: all arrows A -> B from the table,
    together with nu when present (every abstraction has type nu)."""
    parts: list[Type] = [Arrow(a, b) for a, b in table]
    if spec.has_nu:
        parts.append(spec.nu)
    if not parts:
        if spec.omega_eta:
            return FiniteFilter(spec.omega_arrow)
        return FiniteFilter(None)
    return FiniteFilter(canonical(spec, inter_of(parts)))


def phi_membership(spec: TheorySpec, x: FiniteFilter) -> bool:
    """Membership in the functionality set: the filters that behave like
    functions under application."""
    if spec.has_omega:
        return member(spec, x, spec.omega_arrow)
    if spec.has_nu:
        return member(spec, x, spec.nu)
    return True


def interpret_member(
    spec: TheorySpec,
    m: Term,
    env: dict[str, FiniteFilter],
    a: Type,
    budget: SearchBudget = SearchBudget(),
) -> Verdict:
    """Whether a belongs to the interpretation of m in the filter structure
    under env; equivalently, whether the generator basis derives m : a."""
    ctx: dict[str, Type] = {}
    for x in sorted(free_vars(m)):
        f = env.get(x, FiniteFilter(None))
        if f.generator is not None:
            ctx[x] = f.generator
        elif spec.has_omega:
            ctx[x] = spec.omega
        else:
            raise EmptyEnvFilter(f"variable {x!r} is bound to the empty filter")
    v, _ = derives(spec, ctx, m, a, budget)
    return v
