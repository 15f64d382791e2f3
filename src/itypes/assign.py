"""Type assignment: derivation checking and budgeted, inversion-directed search.

The search follows the shape of the judgment's subject.  Variables are decided
exactly; abstractions are decomposed conjunct by conjunct.  An application
``x N1 ... Nk`` with a variable head is inverted exactly: its types are the
upward closure of iterated filter application (generation lemma plus
beta-soundness), so only the arguments need searching.  An application
``(\\x. M) N P1 ... Pk`` headed by an abstraction is decided through its head
contractum ``M[x := N] P1 ... Pk``: subject reduction carries a NO back, and
subject expansion turns the contractum's derivation into the redex's.
Typability subsumes normalization questions, so the search is honest about
its limits: ``UNKNOWN`` is a first-class verdict and ``NO`` is only produced
by exact refutations.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import namedtuple

from .errors import ResourceLimit, UnknownAtomError
from .syntax import (
    App,
    Arrow,
    Atom,
    Inter,
    Lam,
    Term,
    Type,
    Var,
    conjuncts,
    contract_head,
    free_vars,
    inter_of,
    parse_term,
    parse_type,
    print_term,
    print_type,
    type_atoms,
)
from .subtype import (
    arrow_heads,
    canonical,
    canonical_types,
    check_proof,
    leq,
    leq_trace,
    normalize,
)
from .theory import TABLE_CAP, TheorySpec

Basis = dict[str, Type]


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class SearchBudget(namedtuple("SearchBudget", "max_candidate_type_size max_depth")):
    """Bounds of one search.

    ``max_depth`` bounds the nesting of search steps: each abstraction
    body, application argument and head contraction takes one level, and
    a verdict depends only on (context, term, type, depth left).  A search
    that outruns the interpreter's stack ends UNKNOWN, as at ``max_depth``.

    ``max_candidate_type_size`` is inert: no step of ``derives`` or
    ``infer_types`` reads it.  It once bounded a pool of candidate types
    for an argument that a contraction drops, which is now typed by
    synthesis (see ``_Search._dropped_argument``).  The field and its
    ``>= 1`` check stay, so ``SearchBudget(4, 16)``, the keyword form and
    ``--budget-size`` keep working."""

    __slots__ = ()

    def __new__(cls, max_candidate_type_size: int = 6, max_depth: int = 64):
        if max_candidate_type_size < 1 or max_depth < 1:
            raise ValueError("budget fields must be >= 1")
        return super().__new__(cls, max_candidate_type_size, max_depth)


# ---------------------------------------------------------------- derivations

class Derivation(namedtuple("Derivation", "rule ctx term type premises", defaults=((),))):
    """One node of a type-assignment derivation: ``ctx |- term : type`` by
    ``rule``, with ``ctx`` a sorted tuple of (variable, type) pairs.  The
    subtype step of a ``Leq`` node runs from its premise's type to its own.
    An immutable tuple node, like ``subtype.Proof``: equality and hashing
    by value."""

    __slots__ = ()


def _ctx_tuple(ctx: Basis) -> tuple:
    return tuple(sorted(ctx.items()))


def make_derivation(rule, ctx, term, type_, premises=()):
    return Derivation(rule, _ctx_tuple(ctx), term, type_, tuple(premises))


def _lookup(ctx: tuple, x: str):
    """The type ctx binds x to, or None.  A search context is the sorted
    (variable, type) tuple that keys its verdicts and is the ``ctx`` of each
    derivation node made under it.  (x,) sorts just before every (x, T), so
    the bisection compares no two types."""
    i = bisect_left(ctx, (x,))
    if i < len(ctx) and ctx[i][0] == x:
        return ctx[i][1]
    return None


def _bind(ctx: tuple, x: str, t: Type) -> tuple:
    """ctx with x bound to t, in place of any binding of x."""
    i = bisect_left(ctx, (x,))
    j = i + 1 if i < len(ctx) and ctx[i][0] == x else i
    return ctx[:i] + ((x, t),) + ctx[j:]


def check_derivation(spec: TheorySpec, d: Derivation) -> bool:
    """True iff every node instantiates its rule schema exactly.  The
    subtype step of a ``Leq`` node must have a proof trace that
    ``check_proof`` accepts: the decider ``leq`` alone passes no step."""
    return derivation_error(spec, d) is None


def derivation_error(spec: TheorySpec, d: Derivation):
    """Path (tuple of premise indices) to the first incorrect node, or None.
    The root's ctx must bind its variables in strictly increasing order, as
    ``make_derivation`` writes it; the premise checks keep that order."""
    spec.require_valid()
    if any(x >= y for (x, _), (y, _) in zip(d.ctx, d.ctx[1:])):
        return ()

    # preorder on an explicit stack, so depth is bounded only by memory; a
    # path is kept as the pair (parent's path, index), () at the root
    todo = [(d, ())]
    while todo:
        d, path = todo.pop()
        match d.rule:
            case "Ax":
                ok = (
                    isinstance(d.term, Var)
                    and _lookup(d.ctx, d.term.name) == d.type
                    and not d.premises
                )
            case "AxOmega":
                ok = spec.has_omega and d.type is spec.omega and not d.premises
            case "AxNu":
                ok = (
                    spec.has_nu
                    and isinstance(d.term, Lam)
                    and d.type is spec.nu
                    and not d.premises
                )
            case "ArrowI":
                ok = (
                    isinstance(d.term, Lam)
                    and isinstance(d.type, Arrow)
                    and len(d.premises) == 1
                    and d.premises[0].term == d.term.body
                    and d.premises[0].type == d.type.cod
                    and d.premises[0].ctx == _bind(d.ctx, d.term.binder, d.type.dom)
                )
            case "ArrowE":
                ok = (
                    isinstance(d.term, App)
                    and len(d.premises) == 2
                    and d.premises[0].ctx == d.ctx
                    and d.premises[1].ctx == d.ctx
                    and d.premises[0].term == d.term.fun
                    and d.premises[1].term == d.term.arg
                    and d.premises[0].type == Arrow(d.premises[1].type, d.type)
                )
            case "InterI":
                ok = (
                    isinstance(d.type, Inter)
                    and len(d.premises) == 2
                    and all(p.ctx == d.ctx and p.term == d.term for p in d.premises)
                    and d.premises[0].type == d.type.left
                    and d.premises[1].type == d.type.right
                )
            case "Leq":
                ok = (
                    len(d.premises) == 1
                    and d.premises[0].ctx == d.ctx
                    and d.premises[0].term == d.term
                    and (p := leq_trace(spec, d.premises[0].type, d.type)) is not None
                    and p.lhs is d.premises[0].type and p.rhs is d.type
                    and check_proof(spec, p)
                )
            case _:
                ok = False
        if not ok:
            indices = []
            while path:
                path, i = path
                indices.append(i)
            return tuple(reversed(indices))
        todo += reversed([(p, (path, i)) for i, p in enumerate(d.premises)])
    return None


# ---------------------------------------------------------------- search


def _via_leq(ctx, term, got: Derivation, want: Type) -> Derivation:
    if got.type is want:
        return got
    return Derivation("Leq", ctx, term, want, (got,))


def _retarget(d: Derivation, ctx: tuple, m: Term, hole=None) -> Derivation:
    """d, a derivation of m under another context, rebuilt under ctx.

    With ``hole = (x, b)``, d derives m[x := N] instead, and each free x of
    m becomes ``Ax x: b`` weakened to the type d gives that copy of N.  The
    walk keeps an explicit stack, so d's depth is bounded only by memory."""
    out = []  # rebuilt derivations, premises in order
    # frames (d, ctx, m, hole, done): done once d's premises are rebuilt
    todo = [(d, ctx, m, hole, False)]
    while todo:
        d, ctx, m, hole, done = todo.pop()
        if done:
            n = len(out) - len(d.premises)
            premises = tuple(out[n:])
            del out[n:]
            out.append(Derivation(d.rule, ctx, m, d.type, premises))
        elif hole is not None and type(m) is Var and m.name == hole[0]:
            out.append(_via_leq(ctx, m, Derivation("Ax", ctx, m, hole[1]), d.type))
        else:
            todo.append((d, ctx, m, hole, True))
            if d.rule == "ArrowI":
                if hole is not None and m.binder == hole[0]:
                    hole = None  # shadowed
                inner = _bind(ctx, m.binder, d.type.dom)
                todo.append((d.premises[0], inner, m.body, hole, False))
            elif d.rule == "ArrowE":
                fun, arg = d.premises
                todo += ((arg, ctx, m.arg, hole, False), (fun, ctx, m.fun, hole, False))
            else:  # the other rules keep the subject term
                todo += ((p, ctx, m, hole, False) for p in reversed(d.premises))
    return out.pop()


def _spine(m: Term) -> tuple[Term, list[App]]:
    """The head of m and the applications of its spine, innermost first."""
    apps = []
    while type(m) is App:
        apps.append(m)
        m = m.fun
    apps.reverse()
    return m, apps


def _free_where_typed(spec: TheorySpec, ctx, n: Term) -> bool:
    """Whether, in a theory without omega, a variable that ctx does not
    bind occurs free in n at a place that every derivation of n types, so
    that n has no type under ctx.  Without nu every place is one.  With nu
    an abstraction has type nu by AxNu alone, so a place inside one counts
    only when the abstraction is applied: applied to k arguments, it needs
    a type below a chain of k arrows, which only ArrowI gives, and that
    types its body below a chain of k - 1."""
    if spec.omega is not None:
        return False
    # subterms, with the binders above them inside n and the number of
    # arguments they are applied to
    todo = [(n, frozenset(), 0)]
    while todo:
        m, bound, k = todo.pop()
        kind = type(m)
        if kind is Var:
            if m.name not in bound and _lookup(ctx, m.name) is None:
                return True
        elif kind is App:
            todo += ((m.fun, bound, k + 1), (m.arg, bound, 0))
        elif k or spec.nu is None:
            todo.append((m.body, bound | {m.binder}, max(k - 1, 0)))
    return False


class _Untypable(Exception):
    """An argument that a contraction drops has no type at all."""


class _Search:
    """Each verdict depends only on (context, term, type, depth left)."""

    def __init__(self, spec: TheorySpec, budget: SearchBudget):
        spec.tables  # an invalid spec raises here, before any search
        self.spec = spec
        self.budget = budget
        self.cache: dict = {}  # (ctx, term, type, depth) -> (verdict, d)

    def run(self, ctx: Basis, m: Term, a: Type) -> tuple[Verdict, Derivation | None]:
        try:
            return self._derive(_ctx_tuple(ctx), m, a, self.budget.max_depth)
        except RecursionError:
            # the interpreter's stack bounds the search as max_depth does;
            # nothing is cached before its subsearches return
            return Verdict.UNKNOWN, None

    def _derive(self, ctx, m, a, depth):
        if depth <= 0:
            return Verdict.UNKNOWN, None
        key = (ctx, m, a, depth)  # hash-consed nodes: hashed by identity
        hit = self.cache.get(key)
        if hit is None:
            hit = self.cache[key] = self._derive_uncached(ctx, m, a, depth)
        return hit

    def _derive_uncached(self, ctx, m, a, depth):
        spec, omega = self.spec, self.spec.omega
        if omega is not None and leq(spec, omega, a):
            return Verdict.YES, _via_leq(ctx, m, Derivation("AxOmega", ctx, m, omega), a)
        kind = type(m)
        if kind is Var:
            t = _lookup(ctx, m.name)
            if t is not None and leq(spec, t, a):
                return Verdict.YES, _via_leq(ctx, m, Derivation("Ax", ctx, m, t), a)
            return Verdict.NO, None
        if kind is Lam:
            return self._derive_lam(ctx, m, a, depth)
        if kind is App:
            head, apps = _spine(m)
            if type(head) is Var:
                return self._invert_spine(ctx, head, apps, a, depth)
            return self._contract(ctx, apps, a, depth)
        raise TypeError(m)

    # -- abstraction: decompose the target's conjuncts

    def _derive_lam(self, ctx, m, a, depth):
        spec = self.spec
        results = []  # (conjunct Type, verdict, derivation)
        for t in normalize(spec, a):
            if type(t) is Arrow:
                v, d = self._lam_arrow(ctx, m, t, depth)
            elif t is spec.nu:
                v, d = Verdict.YES, Derivation("AxNu", ctx, m, t)
            elif t.name in spec.equations:
                v, d = self._lam_equation(ctx, m, t, depth)
            else:
                # a plain atom can never be inhabited by an abstraction
                v, d = Verdict.NO, None
            if v is Verdict.NO:
                return Verdict.NO, None
            results.append((t, v, d))
        if any(v is Verdict.UNKNOWN for _, v, _ in results):
            return Verdict.UNKNOWN, None
        d = self._inter_intro(ctx, m, [(t, d) for t, _, d in results])
        return Verdict.YES, _via_leq(ctx, m, d, a)

    def _lam_arrow(self, ctx, m, arrow, depth):
        inner = _bind(ctx, m.binder, arrow.dom)
        v, d = self._derive(inner, m.body, arrow.cod, depth - 1)
        if v is Verdict.YES:
            return v, Derivation("ArrowI", ctx, m, arrow, (d,))
        return v, None

    def _lam_equation(self, ctx, m, atom, depth):
        parts = []
        for arrow in conjuncts(self.spec.equations[atom.name]):
            v, d = self._lam_arrow(ctx, m, arrow, depth)
            if v is not Verdict.YES:
                return v, None
            parts.append((arrow, d))
        d = self._inter_intro(ctx, m, parts)
        return Verdict.YES, _via_leq(ctx, m, d, atom)

    def _inter_intro(self, ctx, m, parts):
        """Combine per-conjunct derivations with InterI, right-nested."""
        d = parts[-1][1]
        for t, e in reversed(parts[:-1]):
            d = Derivation("InterI", ctx, m, Inter(t, d.type), (e, d))
        return d

    # -- application: exact spine inversion for a variable head, contraction
    #    of the head redex for an abstraction head

    def _contract(self, ctx, apps, a, depth):
        """Decide (\\x. M) N P1 ... Pk : a through its head contractum
        M[x := N] P1 ... Pk, searched at depth - 1.

        Subject reduction holds in every theory the search accepts, since
        leq's head selection is beta-soundness: a refuted contractum
        refutes the redex, and an unsettled one leaves it unsettled.  A YES
        is carried back to the redex by subject expansion.  A contractum
        headed by a redex again would only be contracted in turn, so the
        chain of head contractions is followed on a loop, and only its end
        is searched: the stack does not grow with the chain.  A redex whose
        dropped argument has no type is refuted: without omega, a typed
        term has every subterm typed, and reduction keeps typings.

        The contractum of apps[i] is the function of the contractum of
        apps[i + 1], and every derivation the search makes of an
        application is a path down its spine through ArrowE function
        premises and Leq steps: InterI is made only for abstractions and
        arguments, and a target above omega is answered before contracting.
        So expansion walks that path down to the contractum of apps[0],
        expands it, and rebuilds the path with its argument premises as
        they were; a node off the path ends the judgment UNKNOWN."""
        chain = []  # each redex spine passed, with its depth
        while True:
            chain.append((apps, depth))
            m, depth = contract_head(apps[-1]), depth - 1
            head, apps = _spine(m)
            if not (apps and type(head) is Lam) or depth <= 0:
                break
        v, d = self._derive(ctx, m, a, depth)
        if v is Verdict.YES:
            try:
                for apps, depth in reversed(chain):
                    path, i = [], len(apps) - 1  # d derives apps[i]'s contractum
                    while i:
                        path.append((d, i))
                        if d.rule == "ArrowE":
                            i -= 1
                        elif d.rule != "Leq":
                            return Verdict.UNKNOWN, None
                        d = d.premises[0]
                    d = self._expand_redex(ctx, apps[0], d, depth)
                    if d is None:
                        return Verdict.UNKNOWN, None
                    for e, i in reversed(path):
                        d = Derivation(e.rule, ctx, apps[i], e.type, (d, *e.premises[1:]))
            except _Untypable:
                return Verdict.NO, None
        return v, d

    def _expand_redex(self, ctx, redex, d, depth):
        """Subject expansion: from d, a derivation of M[x := N] : T, one of
        (\\x. M) N : T.

        Walking d in step with M finds the copies of N that d types, at
        T_1, ..., T_n.  With B their meet, each becomes ``Ax x: B`` plus
        ``Leq(B <= T_i)``, and N : B is the InterI of the copies'
        derivations, rebuilt under ctx: the substitution renamed M's
        binders apart from N's free variables.  When d types no copy, B is
        omega, or else the type that ``_dropped_argument`` synthesizes for
        N and proves at depth - 1; failing both, None.  A verdict depends
        only on (context, term, type, depth left), and the contractum's YES
        was found at depth - 1, so that depth is at least 1."""
        lam, n = redex.fun, redex.arg
        x = lam.binder
        copies = {}  # T_i -> a derivation of that copy of N : T_i
        todo = [(d, lam.body)]
        while todo:
            e, t = todo.pop()
            if type(t) is Var and t.name == x:
                copies.setdefault(e.type, e)
            elif e.rule == "ArrowI":
                if t.binder != x:  # a shadowing binder hides every copy
                    todo.append((e.premises[0], t.body))
            elif e.rule == "ArrowE":
                todo += ((e.premises[1], t.arg), (e.premises[0], t.fun))
            else:
                todo += ((p, t) for p in reversed(e.premises))
        if copies:
            parts = [(t, _retarget(e, ctx, n)) for t, e in copies.items()]
            dn = self._inter_intro(ctx, n, parts)
        elif self.spec.omega is not None:
            dn = Derivation("AxOmega", ctx, n, self.spec.omega)
        else:
            dn = self._dropped_argument(ctx, n, depth - 1)
            if dn is None:
                return None
        b = dn.type
        body = _retarget(d, _bind(ctx, x, b), lam.body, (x, b))
        fun = Derivation("ArrowI", ctx, lam, Arrow(b, d.type), (body,))
        return Derivation("ArrowE", ctx, redex, d.type, (fun, dn))

    def _dropped_argument(self, ctx, n, depth):
        """A derivation of n : B, with B the type ``_synthesize`` gives n,
        searched once at depth; or None.  Without omega an argument that
        the contractum drops must still be typable, as in the lambda-I
        calculus.  When ``_free_where_typed`` finds that n has no type, or
        ``_synthesize`` finds it of the term n reaches, neither has the
        redex: raise _Untypable."""
        if _free_where_typed(self.spec, ctx, n):
            raise _Untypable
        b = self._synthesize(ctx, n, depth, exact=True)
        if b is None:
            return None
        v, d = self._derive(ctx, n, b, depth)
        return d if v is Verdict.YES else None

    def _synthesize(self, ctx, n, depth, exact=False):
        """A type for n in a theory without omega, or None: the type of the
        term m that n's head contractions reach within depth.  A variable
        spine gets its type from ``_spine_type``.  An abstraction \\y. M
        gets nu, or without nu B -> S, with B from ``_binder_type`` and S
        synthesized for M under y : B.

        With ``exact``, raise _Untypable when m, and so n (subject
        reduction), has no type: when ``_free_where_typed`` finds so, or
        when m is a variable spine that a step leaves with no head after
        every step so far was settled.  Only m itself: under a binder type
        that ``_binder_type`` chose, another choice may type the spine."""
        m = n  # contracted at the head, one level of depth per step
        while depth > 0 and (c := contract_head(m)) is not None:
            m, depth = c, depth - 1
        if depth <= 0:
            return None
        # ``_dropped_argument`` has checked n itself
        if exact and m is not n and _free_where_typed(self.spec, ctx, m):
            raise _Untypable
        if type(m) is Lam:
            if self.spec.nu is not None:
                return self.spec.nu
            b = self._binder_type(ctx, m, depth)
            if b is None:
                return None
            s = self._synthesize(_bind(ctx, m.binder, b), m.body, depth - 1)
            return None if s is None else Arrow(b, s)
        head, apps = _spine(m)
        t, _, settled = self._spine_type(ctx, head, apps, depth)
        if t is None and settled and exact:
            raise _Untypable
        return t

    def _binder_type(self, ctx, lam, depth):
        """A type for the binder y of lam: the canonical meet of c, the
        theory's first plain atom, and of what lam's body asks of y; None
        when the theory has no plain atom.

        A use y N1 ... Nk asks S1 -> ... -> Sk -> c, with Si synthesized
        for Ni at depth - 1, or c where there is none.  An argument y of a
        spine whose head ctx binds asks the meet of the arrow-head domains
        at its place, the heads iterated as if every one applied."""
        spec, y = self.spec, lam.binder
        if not spec.plain_atoms:
            return None
        c = Atom(spec.plain_atoms[0])
        asks = [c]
        todo = [(lam.body, frozenset())]  # subterms, with the binders inside lam
        while todo:
            m, bound = todo.pop()
            head, apps = _spine(m)
            if type(head) is Lam:
                if head.binder != y:  # a binder named y hides y below it
                    todo.append((head.body, bound | {head.binder}))
            elif head.name == y:
                t = c
                for app in reversed(apps):
                    s = None
                    if not free_vars(app.arg) & (bound | {y}):
                        s = self._synthesize(ctx, app.arg, depth - 1)
                    t = Arrow(c if s is None else s, t)
                asks.append(t)
            elif head.name not in bound and (t := _lookup(ctx, head.name)) is not None:
                for app in apps:
                    heads = arrow_heads(spec, t)
                    if not heads:
                        break
                    if type(app.arg) is Var and app.arg.name == y:
                        asks.append(inter_of([h.dom for h in heads]))
                    t = inter_of([h.cod for h in heads])
            todo += ((app.arg, bound) for app in apps)
        return canonical(spec, inter_of(asks))

    def _spine_type(self, ctx, head, apps, depth):
        """Iterated filter application along x N1 ... Nk: T_k, or None when
        x is unbound or a step keeps no head; per application, the (head,
        argument derivation) pairs kept; and whether every head dropped so
        far was refuted.

        By the generation lemma and beta-soundness the types of x N1 ... Ni
        are the upward closure of T_i: T_0 is the type of x, and T_i meets
        the codomains of the arrow heads of T_(i-1) whose domains Ni has,
        searched at depth - (k - i + 1).  With no such head, or with x
        unbound, x N1 ... Ni has only the types above omega, and none
        without omega.  An argument the search cannot settle only drops a
        head, which weakens T_i."""
        t = _lookup(ctx, head.name)
        steps, settled = [], True
        k = len(apps)
        for i, app in enumerate(apps):
            if t is None:
                break
            kept = []
            for h in arrow_heads(self.spec, t):
                v, d = self._derive(ctx, app.arg, h.dom, depth - (k - i))
                if v is Verdict.YES:
                    kept.append((h, d))
                elif v is Verdict.UNKNOWN:
                    settled = False
            steps.append(kept)
            t = inter_of([h.cod for h, _ in kept]) if kept else None
        return t, steps, settled

    def _invert_spine(self, ctx, head, apps, a, depth):
        """Decide x N1 ... Nk : a: YES when ``_spine_type`` gives a T_k
        below a.  ``_derive_uncached`` answers every target above omega
        before it comes here, so with no T_k, or one not below a, the spine
        is refuted; UNKNOWN instead when a step dropped a head it could not
        refute, since that only weakened T_k."""
        t, steps, settled = self._spine_type(ctx, head, apps, depth)
        if t is None or not leq(self.spec, t, a):
            return (Verdict.NO if settled else Verdict.UNKNOWN), None
        return Verdict.YES, self._spine_derivation(ctx, head, apps, steps, a)

    def _spine_derivation(self, ctx, head, apps, steps, a):
        """The derivation of x N1 ... Nk : a that _invert_spine's steps give."""
        d = Derivation("Ax", ctx, head, _lookup(ctx, head.name))
        for app, kept in zip(apps, steps):
            da = self._inter_intro(ctx, app.arg, [(h.dom, e) for h, e in kept])
            cod = inter_of([h.cod for h, _ in kept])
            df = _via_leq(ctx, app.fun, d, Arrow(da.type, cod))
            d = Derivation("ArrowE", ctx, app, cod, (df, da))
        return _via_leq(ctx, apps[-1], d, a)


def derives(
    spec: TheorySpec,
    ctx: Basis,
    m: Term,
    a: Type,
    budget: SearchBudget = SearchBudget(),
) -> tuple[Verdict, Derivation | None]:
    """Search for a derivation of ctx |- m : a.  YES comes with a checkable
    derivation; NO is an exact refutation; UNKNOWN means the budget ran out.
    An atom outside the theory raises UnknownAtomError."""
    search = _Search(spec, budget)
    _check_atoms(spec, (*ctx.values(), a))
    return search.run(ctx, m, a)


def _check_atoms(spec: TheorySpec, types) -> None:
    known = spec.tables.in_theory
    for t in types:
        if t in known:
            continue
        stray = type_atoms(t) - spec.atoms
        if stray:
            raise UnknownAtomError(min(stray))
        if len(known) >= TABLE_CAP:
            known.clear()
        known.add(t)


def infer_types(
    spec: TheorySpec,
    ctx: Basis,
    m: Term,
    size_bound: int,
    atoms,
    budget: SearchBudget = SearchBudget(),
) -> set[Type]:
    """All canonical types of bounded size (over the given atoms plus the
    theory's distinguished constants) derivable for m.  An atom of a context
    type outside the theory raises UnknownAtomError, a size_bound below 1
    ValueError."""
    if size_bound < 1:
        raise ValueError(f"the size bound must be at least 1, not {size_bound}")
    search = _Search(spec, budget)
    _check_atoms(spec, ctx.values())
    names = spec.universe_atoms(spec.atoms.intersection(atoms))
    if len(names) ** size_bound > 10**6:
        raise ResourceLimit("type universe too large for enumeration")
    out = set()
    for t in canonical_types(spec, names, size_bound):
        v, _ = search.run(ctx, m, t)
        if v is Verdict.YES:
            out.add(t)
    return out


# ---------------------------------------------------------------- serialization


def derivation_to_json(d: Derivation) -> dict:
    printed = {}  # type or term -> text, so each distinct node is printed once

    def show(node, printer=print_type):
        text = printed.get(node)
        if text is None:
            text = printed[node] = printer(node)
        return text

    root = {}
    todo = [(d, root)]  # an explicit stack of derivations and their empty dicts
    while todo:
        d, data = todo.pop()
        premises = [{} for _ in d.premises]
        data.update(
            rule=d.rule,
            ctx={x: show(t) for x, t in d.ctx},
            term=show(d.term, print_term),
            type=show(d.type),
            premises=premises,
        )
        if d.rule == "Leq" and d.premises:
            data["leq"] = [show(d.premises[0].type), show(d.type)]
        todo += zip(d.premises, premises)
    return root


def derivation_from_json(data: dict) -> Derivation:
    """The derivation that ``derivation_to_json`` wrote as data.  A ``leq``
    entry must read [the premise's type, the node's type] of a ``Leq`` node
    with premises, as ``derivation_to_json`` writes it; any other raises
    ValueError."""
    out = []  # finished derivations, premises in order
    # frames: a node's JSON, or the triple (the node without its premises,
    # their number, its leq entry parsed) once those premises are finished
    todo = [data]
    while todo:
        data = todo.pop()
        if type(data) is tuple:
            node, n, step = data
            n = len(out) - n
            node = node._replace(premises=tuple(out[n:]))
            del out[n:]
            want = None
            if node.rule == "Leq" and node.premises:
                want = (node.premises[0].type, node.type)
            if step != want:
                raise ValueError(f"a {node.rule} node with a wrong leq entry")
            out.append(node)
            continue
        step = tuple(map(parse_type, data["leq"])) if "leq" in data else None
        node = Derivation(
            data["rule"],
            _ctx_tuple({x: parse_type(t) for x, t in data.get("ctx", {}).items()}),
            parse_term(data["term"]),
            parse_type(data["type"]),
        )
        premises = data.get("premises", [])
        todo.append((node, len(premises), step))
        todo += reversed(premises)
    return out.pop()
