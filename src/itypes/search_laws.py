"""The law suites that run the derivation search or classify a theory.

Each law runs ``derives`` on seeded judgments, or ``fun_predicate`` on a
universe of types, and reports a ``laws.LawResult``.  They live apart from
the preorder, oracle, trace, normal-form and filter laws in ``laws``, so
that those load neither the search nor classification; ``laws.run_all``
loads this module when it runs.
"""

from __future__ import annotations

import itertools
import random

from .assign import (
    SearchBudget,
    _ctx_tuple,
    _Search,
    _Untypable,
    check_derivation,
    derives,
)
from .classify import fun_predicate, is_natural, is_strict
from .errors import UnsupportedTheory, Verdict
from .filters import FiniteFilter, apply, member, phi_membership, up
from .laws import LawResult
from .subtype import arrow_heads, canonical, canonical_types, eq
from .syntax import (
    App,
    Arrow,
    Atom,
    Inter,
    Lam,
    OMEGA,
    Type,
    Var,
    contract_head,
    free_vars,
    inter_of,
    print_term,
    print_type,
)
from .theory import TheorySpec


def fun_phi_law(spec: TheorySpec, atoms, size: int) -> LawResult:
    """A principal filter over a functional type lies in the functionality
    set.  The law needs a strict or natural theory: with omega a top type
    but neither omega-eta nor omega-lazy, ``a -> a`` is functional and its
    filter is not in the set."""
    res = LawResult("fun-implies-phi")
    if not (is_strict(spec) or is_natural(spec)):
        res.skipped = "neither strict nor natural"
        return res
    types = canonical_types(spec, spec.universe_atoms(atoms), size)
    for a in types:
        if fun_predicate(spec, a) is not Verdict.YES:
            continue
        res.checked += 1
        if not phi_membership(spec, FiniteFilter(a)):
            res.failures.append(print_type(a))
    return res


_BUDGET = SearchBudget(max_depth=16)  # of the search laws and random_judgments


def _random_term(rng: random.Random, depth: int):
    names = ("x", "y", "z")
    if depth == 0:
        return Var(rng.choice(names))
    match rng.randrange(3):
        case 0:
            return Var(rng.choice(names))
        case 1:
            return Lam(rng.choice(names), _random_term(rng, depth - 1))
        case _:
            return App(_random_term(rng, depth - 1), _random_term(rng, depth - 1))


def _judgments(spec: TheorySpec, atoms, seed: int, count: int):
    """Seeded random judgments with the search's answers at ``_BUDGET``,
    drawn until count of them are Yes or count * 60 have been drawn."""
    rng = random.Random(seed)
    pool = canonical_types(spec, spec.universe_atoms(atoms), 4)
    if not pool:  # a theory with no types: nothing to draw
        return
    yes = 0
    for _ in range(count * 60):
        if yes >= count:
            return
        m = _random_term(rng, rng.randrange(1, 4))
        ctx = {v: rng.choice(pool) for v in ("x", "y", "z") if rng.random() < 0.7}
        a = rng.choice(pool)
        v, d = derives(spec, ctx, m, a, _BUDGET)
        yes += v is Verdict.YES
        yield ctx, m, a, v, d


def random_judgments(spec: TheorySpec, atoms, seed: int, count: int):
    """Seeded stream of Yes-judgments found by the search; used as corpora."""
    return [
        (ctx, m, a, d)
        for ctx, m, a, v, d in _judgments(spec, atoms, seed, count)
        if v is Verdict.YES
    ]


def search_soundness_law(spec: TheorySpec, atoms, seed: int) -> LawResult:
    """Every Yes from the search on seeded judgments, up to 25, comes with a
    derivation the checker accepts, and Yes and No both survive depth 32."""
    res = LawResult("search-soundness")
    big = SearchBudget(max_depth=32)
    for ctx, m, a, v, d in _judgments(spec, atoms, seed, 25):
        if v is Verdict.UNKNOWN:
            continue
        res.checked += 1
        if v is Verdict.YES and (d is None or not check_derivation(spec, d)):
            res.failures.append((str(m), print_type(a), "bad-derivation"))
            continue
        v2, _ = derives(spec, ctx, m, a, big)
        if v2 is not v:
            res.failures.append((str(m), print_type(a), f"budget-flip-{v.value}"))
    return res


def spine_filter_law(spec: TheorySpec, atoms, seed: int) -> LawResult:
    """The search decides every spine x y1 ... yk of variables exactly, as
    iterated filter application: ctx |- x y1 ... yk : a holds iff a belongs
    to up(ctx[x]) . up(ctx[y1]) ... up(ctx[yk]), an unbound variable
    standing for the filter of the empty set.  Every Yes derivation checks.
    200 seeded spines; context types are meets of two canonical types of
    size at most 4."""
    res = LawResult("spine-filter")
    rng = random.Random(seed)
    pool = canonical_types(spec, spec.universe_atoms(atoms), 4)
    if not pool:  # a theory with no types: nothing to check
        return res
    names = ("x", "y", "z")
    for _ in range(200):
        # a meet of two pool types can have two arrow heads
        ctx = {
            v: canonical(spec, Inter(rng.choice(pool), rng.choice(pool)))
            for v in names
            if rng.random() < 0.7
        }
        spine = [rng.choice(names) for _ in range(rng.randint(1, 4))]
        a = rng.choice(pool)

        filters = [up(ctx[v]) if v in ctx else up() for v in spine]
        f, m = filters[0], Var(spine[0])
        for y, g in zip(spine[1:], filters[1:]):
            f = apply(spec, f, g)
            m = App(m, Var(y))
        res.checked += 1
        v, d = derives(spec, ctx, m, a, _BUDGET)
        want = Verdict.YES if member(spec, f, a) else Verdict.NO
        if v is not want:
            res.failures.append((str(m), print_type(a), v.value, want.value))
        elif v is Verdict.YES and not check_derivation(spec, d):
            res.failures.append((str(m), print_type(a), "bad-derivation"))
    return res


def _contract_one(rng: random.Random, m):
    """m with one of its redexes, chosen by rng, contracted; and whether
    that redex is m's head redex."""
    sites = []  # paths to the redexes, a path being a tuple of field names
    todo = [(m, ())]
    while todo:
        t, path = todo.pop()
        if isinstance(t, App):
            if isinstance(t.fun, Lam):
                sites.append(path)
            todo += ((t.fun, path + ("fun",)), (t.arg, path + ("arg",)))
        elif isinstance(t, Lam):
            todo.append((t.body, path + ("body",)))
    path = rng.choice(sorted(sites))

    def rebuild(t, path):
        match path[:1]:
            case ():
                return contract_head(t)
            case ("fun",):
                return App(rebuild(t.fun, path[1:]), t.arg)
            case ("arg",):
                return App(t.fun, rebuild(t.arg, path[1:]))
            case _:
                return Lam(t.binder, rebuild(t.body, path[1:]))

    return rebuild(m, path), all(step == "fun" for step in path)


def _head_unbound(spec: TheorySpec, ctx, m) -> bool:
    """Whether the search, allowed 16 head contractions, finds that the
    argument of m's head redex has no type under ctx, as it does for an
    argument that the contraction drops (``_Search._dropped_argument``)."""
    while type(m.fun) is not Lam:
        m = m.fun
    try:
        _Search(spec, SearchBudget(max_depth=17))._dropped_argument(
            _ctx_tuple(ctx), m.arg, 17)
    except _Untypable:
        return True
    return False


def subject_reduction_law(spec: TheorySpec, atoms, seed: int) -> LawResult:
    """Beta-reduction keeps typings.  For 60 seeded judgments whose subject
    (\\v. M) N P1 ... Pk has a head redex, one redex R of it, chosen at
    random, is contracted to C.  Subject reduction (every theory the search
    accepts) forbids R YES with C NO.  Subject expansion forbids C YES with
    R NO where it holds: with omega, or when R is the head redex, which
    the search decides through its contractum, and its argument is not
    one that ``_head_unbound`` finds without a type: one that has, or
    whose head contractions reach a term that has, a variable outside the
    context free at a place every derivation types, or one whose head
    contractions reach a variable spine with no type.  Without omega a typed
    term has every such place typed.  Every YES derivation checks."""
    res = LawResult("subject-reduction")
    rng = random.Random(seed)
    pool = canonical_types(spec, spec.universe_atoms(atoms), 4)
    if not pool:  # a theory with no types: nothing to check
        return res
    for _ in range(60):
        m = App(
            Lam(rng.choice("xyz"), _random_term(rng, rng.randrange(3))),
            _random_term(rng, rng.randrange(3)),
        )
        for _ in range(rng.randrange(2)):
            m = App(m, _random_term(rng, rng.randrange(2)))
        ctx = {v: rng.choice(pool) for v in ("x", "y", "z") if rng.random() < 0.7}
        a = rng.choice(pool)
        c, at_head = _contract_one(rng, m)
        res.checked += 1
        vm, dm = derives(spec, ctx, m, a, _BUDGET)
        vc, dc = derives(spec, ctx, c, a, _BUDGET)
        for v, d in ((vm, dm), (vc, dc)):
            if v is Verdict.YES and not check_derivation(spec, d):
                res.failures.append((str(m), str(c), print_type(a), "bad-derivation"))
        if vm is Verdict.YES and vc is Verdict.NO:
            res.failures.append((str(m), str(c), print_type(a), "reduction"))
        expands = spec.has_omega or (at_head and not _head_unbound(spec, ctx, m))
        if expands and vc is Verdict.YES and vm is Verdict.NO:
            res.failures.append((str(m), str(c), print_type(a), "expansion"))
    return res


def admissible_rule_suite(spec, corpus, budget=SearchBudget()) -> LawResult:
    """Re-derive each Yes-judgment under the admissible structural rules:
    weakening, strengthening, intersection elimination, and basis
    strengthening by a smaller type."""
    res = LawResult("admissible-rules")
    fresh_type = Atom(min(spec.atoms, default=OMEGA))

    def expect_yes(label, ctx, m, a):
        res.checked += 1
        v, _ = derives(spec, ctx, m, a, budget)
        if v is not Verdict.YES:
            res.failures.append(
                (label, tuple(sorted(ctx.items())), print_term(m), print_type(a), v.value)
            )

    for ctx, m, a in corpus:
        ctx = dict(ctx)
        fresh = next(f"w{i}" for i in range(10**6) if f"w{i}" not in ctx)
        expect_yes("weakening", {**ctx, fresh: fresh_type}, m, a)
        expect_yes(
            "strengthening", {x: t for x, t in ctx.items() if x in free_vars(m)}, m, a
        )
        if isinstance(a, Inter):
            expect_yes("inter-elim-left", ctx, m, a.left)
            expect_yes("inter-elim-right", ctx, m, a.right)
        for x, b in ctx.items():
            expect_yes("leq-basis", {**ctx, x: Inter(b, b)}, m, a)
    return res


def _arrow_decomposition(spec: TheorySpec, a: Type) -> Type | None:
    """An intersection of arrows equivalent to a, if the arrow heads of a
    already suffice; None otherwise."""
    heads = arrow_heads(spec, a)
    if not heads:
        return None
    candidate = inter_of(heads)
    return candidate if eq(spec, a, candidate) else None


def fun_alternative_check(spec: TheorySpec, corpus) -> LawResult:
    """Cross-check the recursive predicate against its semantic alternative:
    fun(A) iff A is equivalent to nu or to an intersection of arrows.

    ``run_all`` does not run it: it fails on named theories with fresh
    atoms.  In ``ehr`` with atoms a and b, fun says YES to ``a & nu`` and
    ``b & nu``, which are neither nu nor have an arrow decomposition."""
    res = LawResult("fun-alternative")
    for a in corpus:
        res.checked += 1
        rec = fun_predicate(spec, a)
        alt = (spec.has_nu and eq(spec, a, spec.nu)) or (
            _arrow_decomposition(spec, a) is not None
        )
        if (rec is Verdict.YES) != alt:
            res.failures.append((print_type(a), rec.value, alt))
    return res


def hindley_rule_check(
    spec: TheorySpec,
    psi: str,
    n: int,
    budget: SearchBudget = SearchBudget(),
    corpus=None,
) -> LawResult:
    """Check instances of the eta-expansion rule for the atom psi: from
    ctx |- M : psi & (omega^n -> omega) conclude
    ctx |- \\x1...xn. M x1...xn : psi, with binders not free in M.  A
    premise NO makes the instance hold vacuously, a conclusion NO after a
    premise YES is a failure, and an UNKNOWN on either side is not
    counted.  The default corpus is the variable x under x : premise.

    ``run_all`` does not run it: the rule fails for a fresh atom psi.  In
    ``ao`` and ``bcd`` with psi = a, ``\\x1. x x1 : a`` is refuted although
    x : a & (omega -> omega) holds."""
    if not spec.has_omega:
        raise UnsupportedTheory("the rule is only meaningful with omega present")
    omega = spec.omega
    premise_type = omega
    for _ in range(n):
        premise_type = Arrow(omega, premise_type)
    premise_type = Inter(Atom(psi), premise_type)
    if corpus is None:
        corpus = [({"x": premise_type}, Var("x"))]
    res = LawResult("hindley-rule")
    for ctx, m in corpus:
        used = free_vars(m)
        fresh = (f"x{i}" for i in itertools.count(1) if f"x{i}" not in used)
        binders = list(itertools.islice(fresh, n))
        expansion = m
        for b in binders:
            expansion = App(expansion, Var(b))
        for b in reversed(binders):
            expansion = Lam(b, expansion)
        v, _ = derives(spec, ctx, m, premise_type, budget)
        if v is Verdict.YES:  # after a premise NO, v stays NO: vacuously ok
            v, _ = derives(spec, ctx, expansion, Atom(psi), budget)
            if v is Verdict.NO:
                res.failures.append((print_term(m), print_term(expansion)))
        if v is not Verdict.UNKNOWN:
            res.checked += 1
    return res
