"""Type assignment: derivation checking and budgeted, inversion-directed search.

The search follows the shape of the judgment's subject.  Variables are decided
exactly; abstractions are decomposed conjunct by conjunct.  An application
``x N1 ... Nk`` with a variable head is inverted exactly: its types are the
upward closure of iterated filter application (generation lemma plus
beta-soundness), so only the arguments need searching.  Other applications
search an argument type over a finite candidate pool.  Typability subsumes
normalization questions, so the search is honest about its limits: ``UNKNOWN``
is a first-class verdict and ``NO`` is only produced by exact refutations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import ResourceLimit, UnsupportedTheory
from .syntax import (
    App,
    Arrow,
    Atom,
    Inter,
    Lam,
    NU,
    OMEGA,
    Term,
    Type,
    Var,
    canonical_term,
    conjuncts,
    free_vars,
    inter_of,
    parse_term,
    parse_type,
    print_term,
    print_type,
    type_atoms,
    type_size,
)
from .subtype import arrow_heads, canonical, canonical_types, leq, normalize
from .theory import TheorySpec, validate, validates_ba

Basis = dict[str, Type]


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchBudget:
    max_candidate_type_size: int = 6
    max_depth: int = 64

    def __post_init__(self):
        if self.max_candidate_type_size < 1 or self.max_depth < 1:
            raise ValueError("budget fields must be >= 1")


# ---------------------------------------------------------------- derivations

RULES = ("Ax", "AxOmega", "AxNu", "ArrowI", "ArrowE", "InterI", "Leq")


@dataclass(frozen=True)
class Derivation:
    rule: str
    ctx: tuple[tuple[str, Type], ...]
    term: Term
    type: Type
    premises: tuple["Derivation", ...] = ()
    leq_pair: tuple[Type, Type] | None = None


def _ctx_tuple(ctx: Basis) -> tuple:
    return tuple(sorted(ctx.items()))


def make_derivation(rule, ctx, term, type_, premises=(), leq_pair=None):
    return Derivation(rule, _ctx_tuple(ctx), term, type_, tuple(premises), leq_pair)


def check_derivation(spec: TheorySpec, d: Derivation) -> bool:
    """True iff every node instantiates its rule schema exactly."""
    return derivation_error(spec, d) is None


def derivation_error(spec: TheorySpec, d: Derivation):
    """Path (tuple of premise indices) to the first incorrect node, or None."""
    if validate(spec):
        raise UnsupportedTheory("theory spec fails validation")

    def bad(d, path):
        ctx = dict(d.ctx)
        match d.rule:
            case "Ax":
                ok = (
                    isinstance(d.term, Var)
                    and ctx.get(d.term.name) == d.type
                    and not d.premises
                )
            case "AxOmega":
                ok = spec.has_omega and d.type == Atom(OMEGA) and not d.premises
            case "AxNu":
                ok = (
                    spec.has_nu
                    and isinstance(d.term, Lam)
                    and d.type == Atom(NU)
                    and not d.premises
                )
            case "ArrowI":
                ok = (
                    isinstance(d.term, Lam)
                    and isinstance(d.type, Arrow)
                    and len(d.premises) == 1
                    and d.premises[0].term == d.term.body
                    and d.premises[0].type == d.type.cod
                    and dict(d.premises[0].ctx)
                    == {**ctx, d.term.binder: d.type.dom}
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
                    and d.leq_pair is not None
                    and d.premises[0].ctx == d.ctx
                    and d.premises[0].term == d.term
                    and d.premises[0].type == d.leq_pair[0]
                    and d.type == d.leq_pair[1]
                    and leq(spec, *d.leq_pair)
                )
            case _:
                ok = False
        if not ok:
            return path
        for i, p in enumerate(d.premises):
            r = bad(p, path + (i,))
            if r is not None:
                return r
        return None

    return bad(d, ())


# ---------------------------------------------------------------- search


def _via_leq(spec, ctx, term, got: Derivation, want: Type) -> Derivation:
    if got.type == want:
        return got
    return make_derivation("Leq", ctx, term, want, (got,), (got.type, want))


def _retarget(d: Derivation, ctx: Basis, m: Term) -> Derivation:
    """d rebuilt for m, an alpha-variant of d.term, under ctx.  The verdict
    cache is keyed up to alpha-equivalence, so a hit can carry the tree of
    another variant, whose binders the checker would not accept for m."""
    match d.rule:
        case "ArrowI":
            (body,) = d.premises
            premises = (_retarget(body, {**ctx, m.binder: d.type.dom}, m.body),)
        case "ArrowE":
            fun, arg = d.premises
            premises = (_retarget(fun, ctx, m.fun), _retarget(arg, ctx, m.arg))
        case _:  # the other rules keep the subject term
            premises = tuple(_retarget(p, ctx, m) for p in d.premises)
    return make_derivation(d.rule, ctx, m, d.type, premises, d.leq_pair)


class _Search:
    def __init__(self, spec: TheorySpec, budget: SearchBudget):
        if not validates_ba(spec):
            raise UnsupportedTheory(
                "derivation search needs the arrow-inter and eta rules"
            )
        spec.tables  # an invalid spec raises here, before any search
        self.spec = spec
        self.budget = budget
        # verdict cache: YES/NO are depth-independent, UNKNOWN remembers the
        # largest depth that failed to settle the query
        self.cache: dict = {}
        self.terms: dict[int, tuple[Term, Term]] = {}  # id(m) -> (m, canonical)

    def run(self, ctx: Basis, m: Term, a: Type) -> tuple[Verdict, Derivation | None]:
        return self._derive(dict(ctx), m, a, self.budget.max_depth)

    def _key(self, ctx, m, a):
        # a judgment's subterms are fixed, so each is renamed once; the entry
        # holds m itself so that its id cannot be reused
        hit = self.terms.get(id(m))
        if hit is None:
            hit = self.terms[id(m)] = (m, canonical_term(m))
        return (_ctx_tuple(ctx), hit[1], a)

    def _derive(self, ctx, m, a, depth):
        key = self._key(ctx, m, a)
        hit = self.cache.get(key)
        if hit is not None:
            verdict, d, at_depth = hit
            if verdict is not Verdict.UNKNOWN or at_depth >= depth:
                if d is not None and d.term != m:
                    d = _retarget(d, ctx, m)
                return verdict, d
        if depth <= 0:
            return Verdict.UNKNOWN, None
        verdict, d = self._derive_uncached(ctx, m, a, depth)
        self.cache[key] = (verdict, d, depth)
        return verdict, d

    def _derive_uncached(self, ctx, m, a, depth):
        spec = self.spec
        omega = Atom(OMEGA)
        if spec.has_omega and leq(spec, omega, a):
            d = make_derivation("AxOmega", ctx, m, omega)
            return Verdict.YES, _via_leq(spec, ctx, m, d, a)
        if spec.has_nu and isinstance(m, Lam) and leq(spec, Atom(NU), a):
            d = make_derivation("AxNu", ctx, m, Atom(NU))
            return Verdict.YES, _via_leq(spec, ctx, m, d, a)

        match m:
            case Var(x):
                if x in ctx and leq(spec, ctx[x], a):
                    d = make_derivation("Ax", ctx, m, ctx[x])
                    return Verdict.YES, _via_leq(spec, ctx, m, d, a)
                return Verdict.NO, None
            case Lam():
                return self._derive_lam(ctx, m, a, depth)
            case App():
                return self._derive_app(ctx, m, a, depth)
        raise TypeError(m)

    # -- abstraction: decompose the target's conjuncts

    def _derive_lam(self, ctx, m, a, depth):
        spec = self.spec
        results = []  # (conjunct Type, verdict, derivation)
        for t in normalize(spec, a):
            if isinstance(t, Arrow):
                v, d = self._lam_arrow(ctx, m, t, depth)
            elif t.name == NU and spec.has_nu:
                v, d = Verdict.YES, make_derivation("AxNu", ctx, m, t)
            elif t.name == OMEGA and spec.has_omega:
                v, d = Verdict.YES, make_derivation("AxOmega", ctx, m, t)
            elif spec.equation_for(t.name) is not None:
                v, d = self._lam_equation(ctx, m, t.name, depth)
            else:
                # a plain atom can never be inhabited by an abstraction
                v, d = Verdict.NO, None
            if v is Verdict.NO:
                return Verdict.NO, None
            results.append((t, v, d))
        if any(v is Verdict.UNKNOWN for _, v, _ in results):
            return Verdict.UNKNOWN, None
        d = self._inter_intro(ctx, m, [(t, d) for t, _, d in results])
        return Verdict.YES, _via_leq(spec, ctx, m, d, a)

    def _lam_arrow(self, ctx, m, arrow, depth):
        inner = dict(ctx)
        inner[m.binder] = arrow.dom
        v, d = self._derive(inner, m.body, arrow.cod, depth - 1)
        if v is Verdict.YES:
            return v, make_derivation("ArrowI", ctx, m, arrow, (d,))
        return v, None

    def _lam_equation(self, ctx, m, atom_name, depth):
        spec = self.spec
        rhs = spec.equation_for(atom_name)
        parts = []
        for arrow in conjuncts(rhs):
            v, d = self._lam_arrow(ctx, m, arrow, depth)
            if v is not Verdict.YES:
                return v, None
            parts.append((arrow, d))
        d = self._inter_intro(ctx, m, parts)
        return Verdict.YES, _via_leq(spec, ctx, m, d, Atom(atom_name))

    def _inter_intro(self, ctx, m, parts):
        """Combine per-conjunct derivations with InterI, right-nested."""
        if len(parts) == 1:
            return parts[0][1]
        head_t, head_d = parts[0]
        rest_d = self._inter_intro(ctx, m, parts[1:])
        return make_derivation(
            "InterI", ctx, m, Inter(head_t, rest_d.type), (head_d, rest_d)
        )

    # -- application: exact spine inversion for a variable head, otherwise a
    #    candidate-pool search for the argument type

    def _derive_app(self, ctx, m, a, depth):
        spine = []
        head = m
        while isinstance(head, App):
            spine.append(head)
            head = head.fun
        if isinstance(head, Var):
            v, d = self._invert_spine(ctx, head, spine[::-1], a, depth)
            if v is not Verdict.UNKNOWN:
                return v, d
        # the pool can only add a YES: its exhaustion is no refutation
        for b in self._candidates(ctx, a):
            vf, df = self._derive(ctx, m.fun, Arrow(b, a), depth - 1)
            if vf is not Verdict.YES:
                continue
            va, da = self._derive(ctx, m.arg, b, depth - 1)
            if va is Verdict.YES:
                d = make_derivation("ArrowE", ctx, m, a, (df, da))
                return Verdict.YES, d
        return Verdict.UNKNOWN, None

    def _invert_spine(self, ctx, head, apps, a, depth):
        """Decide x N1 ... Nk : a by iterated filter application.

        By the generation lemma and beta-soundness the types of x N1 ... Ni
        are the upward closure of T_i: T_0 is the type of x, and T_i meets
        the codomains of the arrow heads of T_(i-1) whose domains Ni has.
        With no such head, x N1 ... Ni has only the types above omega: none
        at all in a theory without omega.  An unbound x is treated the same
        way.  Ni is searched at the depth the pool would give it.  An
        argument the search cannot settle only drops a head, which weakens
        T_i: YES stays sound, NO becomes UNKNOWN."""
        spec = self.spec
        if head.name in ctx:
            t = ctx[head.name]
        elif spec.has_omega:
            t = Atom(OMEGA)
        else:
            return Verdict.NO, None
        settled = True
        steps = []  # per application, the (head, argument derivation) pairs kept
        k = len(apps)
        for i, app in enumerate(apps):
            kept = []
            for h in arrow_heads(spec, t):
                v, da = self._derive(ctx, app.arg, h.dom, depth - (k - i))
                if v is Verdict.YES:
                    kept.append((h, da))
                elif v is Verdict.UNKNOWN:
                    settled = False
            if kept:
                t = inter_of([h.cod for h, _ in kept])
            elif spec.has_omega:
                t = Atom(OMEGA)
            else:
                return (Verdict.NO if settled else Verdict.UNKNOWN), None
            steps.append(kept)
        if not leq(spec, t, a):
            return (Verdict.NO if settled else Verdict.UNKNOWN), None
        return Verdict.YES, self._spine_derivation(ctx, head, apps, steps, a)

    def _spine_derivation(self, ctx, head, apps, steps, a):
        """The derivation of x N1 ... Nk : a that _invert_spine's steps give."""
        spec = self.spec
        if head.name in ctx:
            d = make_derivation("Ax", ctx, head, ctx[head.name])
        else:
            d = make_derivation("AxOmega", ctx, head, Atom(OMEGA))
        for app, kept in zip(apps, steps):
            if not kept:
                d = make_derivation("AxOmega", ctx, app, Atom(OMEGA))
                continue
            da = self._inter_intro(ctx, app.arg, [(h.dom, e) for h, e in kept])
            cod = inter_of([h.cod for h, _ in kept])
            df = _via_leq(spec, ctx, app.fun, d, Arrow(da.type, cod))
            d = make_derivation("ArrowE", ctx, app, cod, (df, da))
        return _via_leq(spec, ctx, apps[-1], d, a)

    def _candidates(self, ctx, a):
        spec = self.spec
        size_cap = self.budget.max_candidate_type_size
        seeds = []
        seen = set()

        def visit(t):
            ct = canonical(spec, t)
            if ct not in seen and type_size(ct) <= size_cap:
                seen.add(ct)
                seeds.append(ct)

        def subterms(t):
            yield t
            match t:
                case Arrow(d, c) | Inter(d, c):
                    yield from subterms(d)
                    yield from subterms(c)

        for t in list(ctx.values()) + [a]:
            for s in subterms(t):
                visit(s)
        atoms = set()
        for t in list(ctx.values()) + [a]:
            atoms |= type_atoms(t)
        if spec.has_omega:
            atoms.add(OMEGA)
        if spec.has_nu:
            atoms.add(NU)
        atoms &= spec.atoms
        rest = [
            t
            for t in canonical_types(spec, atoms, size_cap)
            if t not in seen
        ]
        return seeds + rest


def derives(
    spec: TheorySpec,
    ctx: Basis,
    m: Term,
    a: Type,
    budget: SearchBudget = SearchBudget(),
) -> tuple[Verdict, Derivation | None]:
    """Search for a derivation of ctx |- m : a.  YES comes with a checkable
    derivation; NO is an exact refutation; UNKNOWN means the budget ran out."""
    return _Search(spec, budget).run(ctx, m, a)


def infer_types(
    spec: TheorySpec,
    ctx: Basis,
    m: Term,
    size_bound: int,
    atoms,
    budget: SearchBudget = SearchBudget(),
) -> set[Type]:
    """All canonical types of bounded size (over the given atoms plus the
    theory's distinguished constants) derivable for m."""
    search = _Search(spec, budget)
    names = set(atoms) & spec.atoms
    if spec.has_omega:
        names.add(OMEGA)
    if spec.has_nu:
        names.add(NU)
    if len(names) ** max(size_bound, 1) > 10**6:
        raise ResourceLimit("type universe too large for enumeration")
    out = set()
    for t in canonical_types(spec, names, size_bound):
        v, _ = search.run(ctx, m, t)
        if v is Verdict.YES:
            out.add(t)
    return out


# ---------------------------------------------------------------- admissibility


@dataclass
class SuiteReport:
    checked: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def admissible_rule_suite(spec, corpus, budget=SearchBudget()) -> SuiteReport:
    """Re-derive each Yes-judgment under the admissible structural rules:
    weakening, strengthening, intersection elimination, and basis
    strengthening by a smaller type."""
    report = SuiteReport()
    fresh_types = [Atom(a) for a in sorted(spec.atoms)][:1] or [Atom(OMEGA)]

    def expect_yes(label, ctx, m, a):
        report.checked += 1
        v, _ = derives(spec, ctx, m, a, budget)
        if v is not Verdict.YES:
            report.counterexamples.append(
                (label, _ctx_tuple(ctx), print_term(m), print_type(a), v.value)
            )

    for ctx, m, a in corpus:
        ctx = dict(ctx)
        fresh = next(f"w{i}" for i in range(10**6) if f"w{i}" not in ctx)
        expect_yes("weakening", {**ctx, fresh: fresh_types[0]}, m, a)
        expect_yes(
            "strengthening", {x: t for x, t in ctx.items() if x in free_vars(m)}, m, a
        )
        if isinstance(a, Inter):
            expect_yes("inter-elim-left", ctx, m, a.left)
            expect_yes("inter-elim-right", ctx, m, a.right)
        for x, b in ctx.items():
            smaller = Inter(b, b)
            expect_yes("leq-basis", {**ctx, x: smaller}, m, a)
    return report


# ---------------------------------------------------------------- Hindley rule


class HindleyStatus(enum.Enum):
    ADMISSIBLE = "admissible-on-instance"
    COUNTEREXAMPLE_CANDIDATE = "counterexample-candidate"
    UNKNOWN = "unknown"


def _omega_n_arrow(n: int) -> Type:
    t = Atom(OMEGA)
    for _ in range(n):
        t = Arrow(Atom(OMEGA), t)
    return t


def hindley_rule_check(
    spec: TheorySpec,
    psi: str,
    n: int,
    budget: SearchBudget = SearchBudget(),
    corpus=None,
) -> list[tuple[str, HindleyStatus]]:
    """Check instances of the eta-expansion rule for the atom psi: from
    ctx |- M : psi & (omega^n -> omega) conclude
    ctx |- \\x1...xn. M x1...xn : psi."""
    if not spec.has_omega:
        raise UnsupportedTheory("the rule is only meaningful with omega present")
    premise_type = Inter(Atom(psi), _omega_n_arrow(n))
    if corpus is None:
        corpus = [({"x": premise_type}, Var("x"))]
    out = []
    for ctx, m in corpus:
        body = m
        binders = [f"x{i}" for i in range(1, n + 1)]
        for b in binders:
            body = App(body, Var(b))
        expansion = body
        for b in reversed(binders):
            expansion = Lam(b, expansion)
        pv, _ = derives(spec, ctx, m, premise_type, budget)
        if pv is Verdict.UNKNOWN:
            status = HindleyStatus.UNKNOWN
        elif pv is Verdict.NO:
            status = HindleyStatus.ADMISSIBLE  # vacuous instance
        else:
            cv, _ = derives(spec, ctx, expansion, Atom(psi), budget)
            if cv is Verdict.YES:
                status = HindleyStatus.ADMISSIBLE
            elif cv is Verdict.NO:
                status = HindleyStatus.COUNTEREXAMPLE_CANDIDATE
            else:
                status = HindleyStatus.UNKNOWN
        out.append((print_term(m), status))
    return out


# ---------------------------------------------------------------- serialization


def derivation_to_json(d: Derivation) -> dict:
    data = {
        "rule": d.rule,
        "ctx": {x: print_type(t) for x, t in d.ctx},
        "term": print_term(d.term),
        "type": print_type(d.type),
        "premises": [derivation_to_json(p) for p in d.premises],
    }
    if d.leq_pair is not None:
        data["leq"] = [print_type(d.leq_pair[0]), print_type(d.leq_pair[1])]
    return data


def derivation_from_json(data: dict) -> Derivation:
    leq_pair = None
    if "leq" in data:
        leq_pair = (parse_type(data["leq"][0]), parse_type(data["leq"][1]))
    return Derivation(
        data["rule"],
        tuple(sorted((x, parse_type(t)) for x, t in data.get("ctx", {}).items())),
        parse_term(data["term"]),
        parse_type(data["type"]),
        tuple(derivation_from_json(p) for p in data.get("premises", [])),
        leq_pair,
    )
