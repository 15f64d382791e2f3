"""Finitely generated filters of types and the filter applicative structure.

Every representable filter is principal: a finite generating set collapses to
the intersection of its members, so a filter is either the upward closure of a
single generator or the closure of the empty set (which is the whole of
``up(omega)`` when omega is a constant, and empty otherwise).
"""

from __future__ import annotations

import sys
from collections import namedtuple

from . import _lazy
from .errors import EmptyEnvFilter, Verdict
from .subtype import _select, canonical, leq
from .syntax import Arrow, Term, Type, free_vars, inter_of
from .theory import TheorySpec


# The search loads on first use: only interpret_member runs it.  It calls
# the search through this module (``_filters.derives``), so that a wrapper
# set on the module is what runs.
__getattr__ = _lazy(globals(), {"assign": ("SearchBudget", "derives")})
_filters = sys.modules[__name__]


class FiniteFilter(namedtuple("FiniteFilter", "generator", defaults=(None,))):
    """Upward closure of ``generator``; ``None`` encodes the closure of the
    empty set."""

    __slots__ = ()


def up(*generators: Type) -> FiniteFilter:
    """The filter generated by a finite set of types."""
    if not generators:
        return FiniteFilter(None)
    return FiniteFilter(inter_of(list(generators)))


def _generator(spec: TheorySpec, x: FiniteFilter) -> Type | None:
    """A type that generates x: omega for the filter of the empty set in a
    theory with omega, and None where that filter is empty."""
    return spec.omega if x.generator is None else x.generator


def member(spec: TheorySpec, x: FiniteFilter, a: Type) -> bool:
    g = _generator(spec, x)
    return g is not None and leq(spec, g, a)


def filter_leq(spec: TheorySpec, x: FiniteFilter, y: FiniteFilter) -> bool:
    """Subset order on filters: every member of x is a member of y."""
    g = _generator(spec, x)
    return g is None or member(spec, y, g)


def apply(spec: TheorySpec, x: FiniteFilter, y: FiniteFilter) -> FiniteFilter:
    """Filter application: the filter of all B with A -> B in x for some A in
    y, which is ``leq``'s head selection (``_select``) on their generators."""
    a, c = _generator(spec, x), _generator(spec, y)
    cod = None if a is None or c is None else _select(spec, a, c)
    return FiniteFilter(None if cod is None else canonical(spec, cod))


def make_abstraction_filter(spec: TheorySpec, table) -> FiniteFilter:
    """The filter of a finite step function: the table's arrows A -> B, and
    nu and omega -> omega where the theory has them, as every abstraction has."""
    parts: list[Type] = [Arrow(a, b) for a, b in table]
    if spec.has_nu:
        parts.append(spec.nu)
    if spec.has_omega:
        parts.append(spec.omega_arrow)
    return FiniteFilter(canonical(spec, inter_of(parts)) if parts else None)


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
    budget: SearchBudget | None = None,
) -> Verdict:
    """Whether a belongs to the interpretation of m in the filter structure
    under env; equivalently, whether the generator basis derives m : a,
    searched within budget (by default ``SearchBudget()``)."""
    ctx: dict[str, Type] = {}
    for x in sorted(free_vars(m)):
        g = _generator(spec, env.get(x, FiniteFilter(None)))
        if g is None:
            raise EmptyEnvFilter(f"variable {x!r} is bound to the empty filter")
        ctx[x] = g
    budget = _filters.SearchBudget() if budget is None else budget
    v, _ = _filters.derives(spec, ctx, m, a, budget)
    return v
