"""Executable law suites shared by the test suite and the ``laws`` command.

Each suite enumerates a finite slice of the type language and checks the
defining laws of the preorder, the saturation oracle, normal forms and
filters.  The laws of the functional-type predicate and the derivation
search are in ``search_laws``, which only ``run_all`` loads.  Results are
plain data so callers can render them as text or JSON.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .filters import FiniteFilter, apply, filter_leq, member, up
from .subtype import (
    canonical,
    canonical_types,
    check_proof,
    enumerate_types,
    eq,
    leq,
    leq_trace,
    oracle_relation,
)
from .syntax import Arrow, Inter, print_type
from .theory import Rule, TheorySpec


@dataclass(slots=True)
class LawResult:
    """A law's name, how many instances were checked and the failures; or,
    for a law whose precondition the theory fails, ``skipped``, the
    reason it was not run."""

    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    skipped: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "checked": self.checked,
            "ok": self.ok,
            "failures": [repr(f) for f in self.failures[:20]],
        }
        if self.skipped is not None:
            out["skipped"] = self.skipped
        return out


def _universe(spec: TheorySpec, atoms: frozenset, size: int):
    """All types of bounded size over the atoms plus the theory's constants,
    with the full leq matrix as integer bitmask rows.  Kept with the theory."""
    key = ("leq-matrix", atoms, size)
    return spec.relation(key, lambda: _leq_matrix(spec, atoms, size))


def _leq_matrix(spec: TheorySpec, atoms: frozenset, size: int):
    types = enumerate_types(spec.universe_atoms(atoms), size)
    index = {t: i for i, t in enumerate(types)}
    rows = [0] * len(types)
    for i, a in enumerate(types):
        acc = 0
        for j, b in enumerate(types):
            if leq(spec, a, b):
                acc |= 1 << j
        rows[i] = acc
    return types, index, rows


def preorder_laws(spec: TheorySpec, atoms, size: int) -> list[LawResult]:
    types, index, rows = _universe(spec, frozenset(atoms), size)
    n = len(types)

    refl = LawResult("refl")
    for i in range(n):
        refl.checked += 1
        if not (rows[i] >> i) & 1:
            refl.failures.append(print_type(types[i]))

    trans = LawResult("trans")
    for i in range(n):
        rest = rows[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            trans.checked += 1
            if rows[j] & ~rows[i]:
                trans.failures.append((print_type(types[i]), print_type(types[j])))
    out = [refl, trans]

    idem = LawResult("idem")
    for t in types:
        idem.checked += 1
        if not leq(spec, t, Inter(t, t)):
            idem.failures.append(print_type(t))
    out.append(idem)

    incl = LawResult("incl")
    inters = [(i, t) for i, t in enumerate(types) if isinstance(t, Inter)]
    for i, t in inters:
        incl.checked += 1
        if not ((rows[i] >> index[t.left]) & 1 and (rows[i] >> index[t.right]) & 1):
            incl.failures.append(print_type(t))
    out.append(incl)

    mon = LawResult("mon")
    for (i, t), (j, u) in itertools.product(inters, inters):
        li, ri = index[t.left], index[t.right]
        if (rows[li] >> index[u.left]) & 1 and (rows[ri] >> index[u.right]) & 1:
            mon.checked += 1
            if not (rows[i] >> j) & 1:
                mon.failures.append((print_type(t), print_type(u)))
    out.append(mon)

    arrows = [(i, t) for i, t in enumerate(types) if isinstance(t, Arrow)]
    if Rule.ETA in spec.rules:
        eta = LawResult("eta")
        for (i, t), (j, u) in itertools.product(arrows, arrows):
            if (
                (rows[index[u.dom]] >> index[t.dom]) & 1
                and (rows[index[t.cod]] >> index[u.cod]) & 1
            ):
                eta.checked += 1
                if not (rows[i] >> j) & 1:
                    eta.failures.append((print_type(t), print_type(u)))
        out.append(eta)

    if Rule.ARROW_INTER in spec.rules:
        ai = LawResult("arrow-inter")
        for _, t in arrows:
            for _, u in arrows:
                if t.dom == u.dom:
                    ai.checked += 1
                    lhs = Inter(t, u)
                    rhs = Arrow(t.dom, Inter(t.cod, u.cod))
                    if not leq(spec, lhs, rhs):
                        ai.failures.append((print_type(lhs), print_type(rhs)))
        out.append(ai)
    return out


def oracle_agreement_law(spec: TheorySpec, atoms, size: int) -> LawResult:
    """Every subtyping the saturation oracle finds must be confirmed by leq."""
    types, index, rows = _universe(spec, frozenset(atoms), size)
    oindex, osucc = oracle_relation(spec, atoms, size)
    res = LawResult("oracle-agreement")
    # both enumerate one universe in one order, so their bits line up
    if oindex != index:
        res.failures.append("the oracle's universe is not leq's")
        return res
    for i, t in enumerate(types):
        res.checked += osucc[i].bit_count()
        missing = osucc[i] & ~rows[i]
        while missing:
            j = (missing & -missing).bit_length() - 1
            missing &= missing - 1
            res.failures.append((print_type(t), print_type(types[j])))
    return res


def trace_soundness_law(spec: TheorySpec, atoms, size: int) -> LawResult:
    """Every positive leq answer carries a trace the checker accepts."""
    types, index, rows = _universe(spec, frozenset(atoms), size)
    res = LawResult("trace-soundness")
    for i, a in enumerate(types):
        rest = rows[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            res.checked += 1
            p = leq_trace(spec, a, types[j])
            if p is None or p.lhs != a or p.rhs != types[j] or not check_proof(spec, p):
                res.failures.append((print_type(a), print_type(types[j])))
    return res


def normal_form_laws(spec: TheorySpec, atoms, size: int) -> LawResult:
    """canonical is idempotent and preserves equivalence."""
    types, _, _ = _universe(spec, frozenset(atoms), size)
    res = LawResult("normal-form")
    for t in types:
        res.checked += 1
        ct = canonical(spec, t)
        if canonical(spec, ct) != ct or not eq(spec, t, ct):
            res.failures.append(print_type(t))
    return res


def filter_laws(spec: TheorySpec, atoms, size: int) -> list[LawResult]:
    gens = canonical_types(spec, spec.universe_atoms(atoms), size)
    small = canonical_types(spec, spec.universe_atoms(atoms), min(size, 3))

    upward = LawResult("filter-upward-closure")
    intersect = LawResult("filter-inter-closure")
    for g in gens:
        x = FiniteFilter(g)
        for a in small:
            if not member(spec, x, a):
                continue
            for b in small:
                if leq(spec, a, b):
                    upward.checked += 1
                    if not member(spec, x, b):
                        upward.failures.append((print_type(g), print_type(b)))
                if member(spec, x, b):
                    intersect.checked += 1
                    if not member(spec, x, Inter(a, b)):
                        intersect.failures.append(
                            (print_type(g), print_type(a), print_type(b))
                        )

    simple = LawResult("prop-simple")
    for g in gens:
        x = FiniteFilter(g)
        if spec.has_omega and not member(spec, x, spec.omega_arrow):
            continue
        for a in small:
            # b in x . up(a) iff a -> b in x, applying x to up(a) once
            xa = apply(spec, x, up(a))
            for b in small:
                simple.checked += 1
                if member(spec, xa, b) != member(spec, x, Arrow(a, b)):
                    simple.failures.append((print_type(g), print_type(a), print_type(b)))

    mono = LawResult("apply-monotone")
    args = [up(t) for t in small] + [up()]
    for g1, g2 in itertools.product(small, small):
        x1, x2 = up(g1), up(g2)
        if not filter_leq(spec, x1, x2):
            continue
        for y in args:
            mono.checked += 1
            if not filter_leq(spec, apply(spec, x1, y), apply(spec, x2, y)):
                mono.failures.append((print_type(g1), print_type(g2)))
    return [upward, intersect, simple, mono]


def run_all(spec: TheorySpec, atoms, size: int, seed: int) -> list[LawResult]:
    """Every law suite on the universe of the given size, at least 1."""
    if size < 1:
        raise ValueError(f"the universe size must be at least 1, not {size}")
    results = []
    results += preorder_laws(spec, atoms, size)
    # these two laws run on at most the size-3 universe; every type has an
    # odd node count, so the size-4 universe would be the same
    results.append(oracle_agreement_law(spec, atoms, min(size, 3)))
    results.append(trace_soundness_law(spec, atoms, min(size, 3)))
    results.append(normal_form_laws(spec, atoms, size))
    results += filter_laws(spec, atoms, size)
    from . import search_laws as s  # the search loads only here

    results.append(s.fun_phi_law(spec, atoms, size))
    results.append(s.search_soundness_law(spec, atoms, seed))
    results.append(s.spine_filter_law(spec, atoms, seed))
    results.append(s.subject_reduction_law(spec, atoms, seed))
    corpus = s.random_judgments(spec, atoms, seed, 25)
    results.append(s.admissible_rule_suite(spec, [(c, m, a) for c, m, a, _ in corpus]))
    return results
