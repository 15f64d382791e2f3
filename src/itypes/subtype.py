"""Subtype decision procedure for theories validating the base rule set.

``leq`` decides A <= B by flattening intersections and reducing arrow goals
to a subset selection over the left side's "arrow heads" (explicit arrow
conjuncts, atom-equation expansions, and the omega->omega contributions of
the omega-eta / omega-lazy axioms).  It builds no proof; its decisions are
memoised in the theory's tables.  ``leq_trace`` decides first and gives every
positive answer a proof trace: a tree of primitive rule applications that
``check_proof`` can verify without trusting the algorithm.  Proof nodes are
immutable tuples; the arrow heads of a type come with their proofs from the
theory's ``head_proofs`` table, the traces of one left type share subproofs
through its ``proofs`` row, and the omega -> omega branches of one arrow
target share its ``omega_tails`` entry.
``check_proof`` checks one rule instance per node on an explicit stack.

``leq_oracle`` is the independent safety net: it saturates the subtype
relation over a finite universe of types and answers from the closure, which
is kept with the theory (``TheorySpec.relation``) without validating it.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .errors import ResourceLimit
from .syntax import (
    Arrow,
    Atom,
    Inter,
    Type,
    conjuncts,
    inter_of,
    print_type,
    type_atoms,
)
from .theory import TABLE_CAP, Rule, TheorySpec

# ---------------------------------------------------------------- proofs


class Proof(namedtuple("Proof", "rule lhs rhs premises", defaults=((),))):
    """One node of an inequational derivation: ``lhs <= rhs`` by ``rule``.

    A light immutable tuple node, as one trace can have thousands: fields
    ``rule, lhs, rhs, premises`` in that order, equality and hashing by
    value, and an ``AttributeError`` on assignment.  Nodes are shared
    freely, within a trace and across traces of one theory."""

    __slots__ = ()


def _refl(a):
    return Proof("refl", a, a)


def _trans(p, q):
    if p.rule == "refl":
        return q
    if q.rule == "refl":
        return p
    return Proof("trans", p.lhs, q.rhs, (p, q))


def _mon(p, q):
    return Proof("mon", Inter(p.lhs, q.lhs), Inter(p.rhs, q.rhs), (p, q))


def _eta(pdom, pcod):
    # contravariant in the domain: pdom proves rhs.dom <= lhs.dom
    return Proof("eta", Arrow(pdom.rhs, pcod.lhs), Arrow(pdom.lhs, pcod.rhs), (pdom, pcod))


def _axiom_ok(spec: TheorySpec, rules, rule, lhs, rhs) -> bool:
    """Whether ``lhs <= rhs`` is an instance of the premise-free ``rule``;
    ``rules`` are the special rules of the theory."""
    match rule:
        case "omega-top":
            return "omega-top" in rules and rhs is spec.omega
        case "refl":
            return lhs == rhs
        case "idem":
            return rhs == Inter(lhs, lhs)
        case "incl-l":
            return isinstance(lhs, Inter) and lhs.left == rhs
        case "incl-r":
            return isinstance(lhs, Inter) and lhs.right == rhs
        case "omega-eta":
            return (
                "omega-eta" in rules and lhs is spec.omega
                and rhs is spec.omega_arrow
            )
        case "omega-lazy":
            return (
                "omega-lazy" in rules and isinstance(lhs, Arrow)
                and rhs is spec.omega_arrow
            )
        case "arrow-inter":
            if "arrow-inter" not in rules:
                return False
            match lhs, rhs:
                case Inter(Arrow(a1, b), Arrow(a2, c)), Arrow(a3, Inter(b2, c2)):
                    return a1 == a2 == a3 and b == b2 and c == c2
            return False
        case "nu-top":
            return "nu-top" in rules and isinstance(lhs, Arrow) and rhs is spec.nu
        case "eq-unfold":
            return isinstance(lhs, Atom) and spec.equations.get(lhs.name) is rhs
        case "eq-fold":
            return isinstance(rhs, Atom) and spec.equations.get(rhs.name) is lhs
    return False


def check_proof(spec: TheorySpec, p: Proof) -> bool:
    """Verify that every node is a correct instance of a primitive rule the
    theory has.  The walk keeps an explicit stack, so a proof's depth is
    bounded only by memory, and checks a node that premises share once
    within one call: traces that share nodes are each checked in full."""
    rules = spec.rules
    seen = set()  # the ids of the nodes with premises checked so far
    todo = [p]
    while todo:
        node = todo.pop()
        rule, lhs, rhs, premises = node
        if not premises:
            if not _axiom_ok(spec, rules, rule, lhs, rhs):
                return False
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        # trans, mon and eta take two premises; every other rule none
        if len(premises) != 2:
            return False
        q, r = premises
        if rule == "trans":
            ok = q.lhs == lhs and q.rhs == r.lhs and r.rhs == rhs
        elif rule == "mon":
            ok = (
                isinstance(lhs, Inter) and isinstance(rhs, Inter)
                and q.lhs == lhs.left and r.lhs == lhs.right
                and q.rhs == rhs.left and r.rhs == rhs.right
            )
        elif rule == "eta":
            # contravariant in the domain: q proves rhs.dom <= lhs.dom
            ok = (
                "eta" in rules and isinstance(lhs, Arrow) and isinstance(rhs, Arrow)
                and q.lhs == rhs.dom and q.rhs == lhs.dom
                and r.lhs == lhs.cod and r.rhs == rhs.cod
            )
        else:
            return False
        if not ok:
            return False
        todo += (r, q)  # the left premise first
    return True


def proof_to_json(p: Proof) -> dict:
    printed = {}  # type -> text, so each distinct type is printed once

    def show(t):
        text = printed.get(t)
        if text is None:
            text = printed[t] = print_type(t)
        return text

    root = {}
    todo = [(p, root)]  # an explicit stack of proofs and their empty dicts
    while todo:
        p, out = todo.pop()
        premises = [{} for _ in p.premises]
        out.update(rule=p.rule, lhs=show(p.lhs), rhs=show(p.rhs), premises=premises)
        todo += zip(p.premises, premises)
    return root


# --------------------------------------------------------- proof combinators


def _projections(t: Type):
    """The non-intersection leaves of t, left to right, each with its proof
    of t <= leaf by a chain of incl projections.  Made lazily on an explicit
    stack, one projection per intersection node passed; a shared
    intersection node is expanded once, as in ``conjuncts``."""
    seen = set()
    todo = [(t, _refl(t))]
    while todo:
        t, p = todo.pop()
        if isinstance(t, Inter):
            if t not in seen:
                seen.add(t)
                todo += (
                    (t.right, _trans(p, Proof("incl-r", t, t.right))),
                    (t.left, _trans(p, Proof("incl-l", t, t.left))),
                )
        else:
            yield t, p


def _leq_parts(a: Type, proofs) -> Proof:
    """a <= t1 & ... & tn (right-nested), from proofs of a <= t_i.  The
    result's rhs has exactly the ``inter_of`` shape over the t_i.  Built
    from the last part back, on a loop."""
    idem = Proof("idem", a, Inter(a, a))
    p = proofs[-1]
    for q in reversed(proofs[:-1]):
        p = _trans(idem, _mon(q, p))
    return p


def _arrow_family(t: Type) -> Proof:
    """For t a right-nested intersection of arrows: t <= (inter of doms) ->
    (inter of cods).  Built from the last arrow back, on a loop."""
    heads = []
    while isinstance(t, Inter):
        heads.append(t.left)
        t = t.right
    p = _refl(t)
    for head in reversed(heads):
        rest = p.rhs  # (∩A') -> (∩B')
        lifted = _mon(_refl(head), p)  # the meet from head on <= head ∩ rest
        dom = Inter(head.dom, rest.dom)
        q1 = _eta(Proof("incl-l", dom, head.dom), _refl(head.cod))
        q2 = _eta(Proof("incl-r", dom, rest.dom), _refl(rest.cod))
        weakened = _mon(q1, q2)
        ai = Proof("arrow-inter", weakened.rhs, Arrow(dom, Inter(head.cod, rest.cod)))
        p = _trans(lifted, _trans(weakened, ai))
    return p


# ---------------------------------------------------------------- leq


def arrow_heads(spec: TheorySpec, a: Type) -> tuple[Arrow, ...]:
    """The arrows a lies below: its arrow conjuncts, the expansions of its
    equated atoms, and omega -> omega where omega-eta or omega-lazy gives it.
    Memoised in the theory's tables."""
    table = spec.tables.heads
    heads = table.get(a)
    if heads is None:
        found = []
        for leaf in conjuncts(a):
            if isinstance(leaf, Arrow):
                found.append(leaf)
            elif isinstance(leaf, Atom):
                rhs = spec.equations.get(leaf.name)
                if rhs is not None:
                    found.extend(conjuncts(rhs))
        if spec.omega_eta or (spec.omega_lazy and found):
            found.append(spec.omega_arrow)
        heads = tuple(found)
        if len(table) >= TABLE_CAP:
            table.clear()
        table[a] = heads
    return heads


def _select(spec: TheorySpec, a: Type, c: Type) -> Type | None:
    """The beta-soundness step: the meet of the codomains of a's arrow heads
    whose domain c lies below, or None.  The only reader and writer of the
    theory's selection slot, which keeps the last selection; the slot is set
    after the subgoals, which may set it too."""
    tables = spec.tables
    last = tables.selection
    if last is not None and last[0] is a and last[1] is c:
        return last[2]
    cods = [h.cod for h in arrow_heads(spec, a) if leq(spec, c, h.dom)]
    cod = inter_of(cods) if cods else None
    tables.selection = (a, c, cod)
    return cod


def leq(spec: TheorySpec, a: Type, b: Type) -> bool:
    """Decide a <= b without building a proof.  The meet is a greatest lower
    bound, so an intersection target is decided from its parts and not
    memoised, and an arrow target by head selection alone; ``_build`` adds
    one branch there, the omega -> omega proof shape the trace golden pins.
    Atom and arrow decisions are memoised in the theory's tables."""
    tables = spec.tables  # before the shortcut: an invalid spec raises here
    if a is b:
        return True
    if isinstance(b, Inter):
        # a is below every part, taken left to right on a stack; a shared
        # intersection part is expanded once
        seen = set()
        todo = [b.right, b.left]
        while todo:
            t = todo.pop()
            if isinstance(t, Inter):
                if t not in seen:
                    seen.add(t)
                    todo += (t.right, t.left)
            elif not leq(spec, a, t):
                return False
        return True
    row = tables.leq.get(a)
    if row is not None:
        ok = row.get(b)
        if ok is not None:
            return ok
    if isinstance(b, Atom):
        if b is spec.omega:
            ok = True
        elif b in conjuncts(a):
            ok = True
        elif b is spec.nu:
            ok = bool(arrow_heads(spec, a))
        else:
            rhs = spec.equations.get(b.name)
            ok = rhs is not None and leq(spec, a, rhs)
    else:
        cod = _select(spec, a, b.dom)
        ok = cod is not None and leq(spec, cod, b.cod)
    # one row per left type; the cap counts decisions over all rows, and a
    # subgoal may have cleared the memo, so the row is looked up again
    memo = tables.leq
    if tables.leq_size >= TABLE_CAP:
        memo.clear()
        tables.leq_size = 0
    row = memo.get(a)
    if row is None:
        row = memo[a] = {}
    row[b] = ok
    tables.leq_size += 1
    return ok


class _Head(namedtuple("_Head", "arrow proof")):
    """An arrow head with its proof of a <= arrow."""

    __slots__ = ()


def _head_proofs(spec: TheorySpec, a: Type) -> tuple[_Head, ...]:
    """``arrow_heads`` with a proof of a <= head for each.  Memoised in the
    theory's tables."""
    table = spec.tables.head_proofs
    heads = table.get(a)
    if heads is not None:
        return heads
    found = []
    for leaf, proof in _projections(a):
        if isinstance(leaf, Arrow):
            found.append(_Head(leaf, proof))
        elif isinstance(leaf, Atom):
            rhs = spec.equations.get(leaf.name)
            if rhs is not None:
                base = _trans(proof, Proof("eq-unfold", leaf, rhs))
                for arr, q in _projections(rhs):
                    found.append(_Head(arr, _trans(base, q)))
    omega, oo = spec.omega, spec.omega_arrow
    if spec.omega_eta:
        found.append(
            _Head(oo, _trans(Proof("omega-top", a, omega), Proof("omega-eta", omega, oo)))
        )
    elif spec.omega_lazy and found:
        first = found[0]
        found.append(
            _Head(oo, _trans(first.proof, Proof("omega-lazy", first.arrow, oo)))
        )
    heads = tuple(found)
    if len(table) >= TABLE_CAP:
        table.clear()
    table[a] = heads
    return heads


def _build(spec: TheorySpec, a: Type, b: Type, memo: dict) -> Proof:
    """The proof trace of a <= b, which ``leq`` must have accepted: ``leq``'s
    cases plus one branch, the omega -> omega proof shape the trace golden
    pins.  No refuted subgoal is ever proved; ``memo`` shares subproofs and
    is cleared when it reaches ``TABLE_CAP``."""
    if a is b:
        return _refl(a)
    key = (a, b)
    p = memo.get(key)
    if p is None:
        p = _build_uncached(spec, a, b, memo)
        if len(memo) >= TABLE_CAP:
            memo.clear()
        memo[key] = p
    return p


def _build_uncached(spec, a, b, memo):
    if isinstance(b, Inter):
        pl, pr = _build(spec, a, b.left, memo), _build(spec, a, b.right, memo)
        return _leq_parts(a, [pl, pr])

    if isinstance(b, Atom):
        if b is spec.omega:
            return Proof("omega-top", a, b)
        for leaf, proof in _projections(a):
            if leaf is b:
                return proof
        if b is spec.nu:
            h = _head_proofs(spec, a)[0]
            return _trans(h.proof, Proof("nu-top", h.arrow, b))
        rhs = spec.equations[b.name]
        return _trans(_build(spec, a, rhs, memo), Proof("eq-fold", rhs, b))

    c, d = b.dom, b.cod
    omega, oo = spec.omega, spec.omega_arrow
    if (
        (spec.omega_eta or (spec.omega_lazy and arrow_heads(spec, a)))
        and leq(spec, omega, d)
    ):
        tail = _omega_tail(spec, b, memo)  # Ω→Ω <= c→d, from Ω under omega-eta
        if spec.omega_eta:
            return _trans(Proof("omega-top", a, omega), tail)
        h = _head_proofs(spec, a)[0]
        return _trans(h.proof, _trans(Proof("omega-lazy", h.arrow, oo), tail))

    # beta-soundness step: take every head whose domain absorbs c
    selected = [
        (h, _build(spec, c, h.arrow.dom, memo))
        for h in _head_proofs(spec, a)
        if leq(spec, c, h.arrow.dom)
    ]
    cods = inter_of([h.arrow.cod for h, _ in selected])
    pd = _build(spec, cods, d, memo)
    p1 = _leq_parts(a, [h.proof for h, _ in selected])
    p2 = _arrow_family(p1.rhs)
    pc_all = _leq_parts(c, [pc for _, pc in selected])
    return _trans(p1, _trans(p2, _eta(pc_all, pd)))


def _omega_tail(spec: TheorySpec, b: Arrow, memo: dict) -> Proof:
    """The part of the omega -> omega branch that no left type enters: Ω→Ω
    <= b by eta, after omega-eta's Ω <= Ω→Ω where the theory has it.
    Memoised per target in the theory's tables."""
    table = spec.tables.omega_tails
    p = table.get(b)
    if p is None:
        omega = spec.omega
        p = _eta(Proof("omega-top", b.dom, omega), _build(spec, omega, b.cod, memo))
        if spec.omega_eta:
            p = _trans(Proof("omega-eta", omega, spec.omega_arrow), p)
        if len(table) >= TABLE_CAP:
            table.clear()
        table[b] = p
    return p


def leq_trace(spec: TheorySpec, a: Type, b: Type):
    """Decide a <= b; returns the proof trace on success, None on failure.
    The trace is built only after the decision accepts.  Traces of one left
    type share their subproofs through the theory's proof row, which the
    next left type replaces: a trace of a <= l & r holds the traces of
    a <= l and a <= r made before it."""
    if not leq(spec, a, b):
        return None
    tables = spec.tables
    row = tables.proofs
    if row is None or row[0] is not a:
        row = tables.proofs = (a, {})
    return _build(spec, a, b, row[1])


def eq(spec: TheorySpec, a: Type, b: Type) -> bool:
    return leq(spec, a, b) and leq(spec, b, a)


# ---------------------------------------------------------------- normal forms


def _conjunct_key(t):
    if isinstance(t, Atom):
        return (0, t.name)
    return (1, print_type(t.dom), print_type(t.cod))


def normalize(spec: TheorySpec, t: Type) -> tuple[Type, ...]:
    """The canonical conjuncts of t: intersections flattened, arrow sides
    made canonical, duplicates and redundant omega dropped, sorted.
    Memoised in the theory's tables."""
    table = spec.tables.canon
    parts = table.get(t)
    if parts is None:
        # a dict keeps first occurrences in order
        seen = dict.fromkeys(
            Arrow(canonical(spec, c.dom), canonical(spec, c.cod)) if isinstance(c, Arrow) else c
            for c in conjuncts(t)
        )
        omega = spec.omega
        if omega is not None and len(seen) > 1:
            seen = [c for c in seen if c is not omega]
        parts = tuple(sorted(seen, key=_conjunct_key))
        if len(table) >= TABLE_CAP:
            table.clear()
        table[t] = parts
    return parts


def canonical(spec: TheorySpec, t: Type) -> Type:
    return inter_of(normalize(spec, t))


# ---------------------------------------------------------------- enumeration


def enumerate_types(atom_names, max_size: int) -> list[Type]:
    """Every type of node count <= max_size over the given atoms, in a fixed
    deterministic order (by size, then construction order)."""
    by_size = {1: [Atom(n) for n in sorted(atom_names)]}
    for n in range(2, max_size + 1):
        acc = []
        for i in range(1, n - 1):
            j = n - 1 - i
            for d in by_size.get(i, ()):
                for c in by_size.get(j, ()):
                    acc.append(Arrow(d, c))
            for d in by_size.get(i, ()):
                for c in by_size.get(j, ()):
                    acc.append(Inter(d, c))
        by_size[n] = acc
    out = []
    for n in range(1, max_size + 1):
        out.extend(by_size.get(n, ()))
    return out


def canonical_types(spec: TheorySpec, atom_names, max_size: int) -> tuple[Type, ...]:
    """Canonical representatives (one per normal form) of the enumerated
    types, in enumeration order.  Kept by ``TheorySpec.relation``."""
    atoms = frozenset(atom_names)
    # a dict keeps first occurrences in order
    return spec.relation(("pool", atoms, max_size), lambda: tuple(dict.fromkeys(
        canonical(spec, t) for t in enumerate_types(atoms, max_size)
    )))


# ---------------------------------------------------------------- oracle


class OracleResult(enum.Enum):
    YES = "yes"
    NOT_FOUND = "not-found"


UNIVERSE_CAP = 20000


def _saturate(spec: TheorySpec, atoms: frozenset, bound: int):
    """The least preorder on the universe closed under refl, incl, trans,
    pairing, eta where the theory has it, and the theory's axioms.

    The relation is kept transitively closed edge by edge (Italiano's
    incremental closure, TCS 48, 1986): ``succ[i]``, the row, holds the
    types above i, and ``pred[j]``, the column, the types below j, so an
    edge puts everything below its source under everything above its
    target at once, and pairing and eta read their premises as masks."""
    universe = enumerate_types(atoms, bound)
    if len(universe) > UNIVERSE_CAP:
        raise ResourceLimit(
            f"oracle universe has {len(universe)} types (cap {UNIVERSE_CAP})"
        )
    index = {t: i for i, t in enumerate(universe)}
    n = len(universe)
    omega, oo, nu = spec.omega, spec.omega_arrow, spec.nu
    rules = spec.rules
    top = 1 << index[omega] if Rule.OMEGA_TOP in rules and omega in index else 0
    # succ[i] bit j set <=> universe[i] <= universe[j] <=> pred[j] bit i set;
    # refl and omega-top, which are closed already
    succ = [1 << i | top for i in range(n)]
    pred = [1 << j for j in range(n)]
    if top:
        pred[index[omega]] = (1 << n) - 1

    def below(down, j):
        """Put every type of ``down``, a set closed downwards, below j, and
        everything below them under everything above j.  Whether it grew."""
        new = down & ~pred[j]
        if not new:
            return False
        up = succ[j]
        while new:
            low = new & -new
            new ^= low
            succ[low.bit_length() - 1] |= up
        while up:
            low = up & -up
            up ^= low
            pred[low.bit_length() - 1] |= down
        return True

    def add(i, j):
        below(pred[i], j)

    arrows = [(i, index[t.dom], index[t.cod]) for i, t in enumerate(universe)
              if isinstance(t, Arrow)]
    inters = [(i, index[t.left], index[t.right]) for i, t in enumerate(universe)
              if isinstance(t, Inter)]

    for i, li, ri in inters:
        add(i, li)
        add(i, ri)
        t = universe[i]
        # arrow-inter instances
        if (
            Rule.ARROW_INTER in rules
            and isinstance(t.left, Arrow)
            and isinstance(t.right, Arrow)
            and t.left.dom == t.right.dom
        ):
            target = Arrow(t.left.dom, Inter(t.left.cod, t.right.cod))
            if target in index:
                add(i, index[target])
    for i, _, _ in arrows:
        if Rule.NU_TOP in rules and nu in index:
            add(i, index[nu])
        if spec.omega_lazy and oo in index:
            add(i, index[oo])
    if spec.omega_eta and omega in index and oo in index:
        add(index[omega], index[oo])
    for name, rhs in spec.atom_equations:
        at = Atom(name)
        if at in index and rhs in index:
            add(index[at], index[rhs])
            add(index[rhs], index[at])

    def union(bits, masks):
        acc = 0
        while bits:
            low = bits & -bits
            bits ^= low
            acc |= masks[low.bit_length() - 1]
        return acc

    # the arrows by domain and by codomain, and the types that are one
    by_dom, by_cod = {}, {}
    for i, di, ci in arrows:
        by_dom[di] = by_dom.get(di, 0) | 1 << i
        by_cod[ci] = by_cod.get(ci, 0) | 1 << i
    doms, cods = sum(1 << d for d in by_dom), sum(1 << c for c in by_cod)

    # Rounds of pairing and eta until one adds nothing: the relation is
    # closed after every edge, so only these two rules can still grow it
    while True:
        # pairing: i <= l and i <= r give i <= l & r.  It covers idem (l = r
        # = t, as succ[t] holds t) and mon (t = l & r below u = l' & r' from
        # l <= l' and r <= r': the incl edges and the closure put l' and r'
        # in succ[t]), so neither needs a pass of its own
        grew = False
        for k, li, ri in inters:
            grew |= below(pred[li] & pred[ri], k)
        # eta: d -> c <= d' -> c' for d' <= d and c <= c'.  The sources of
        # d' -> c' are the arrows with a domain above d' and a codomain below
        # c', gathered once a round (a mask gone stale within the round only
        # holds fewer sources)
        if Rule.ETA in rules:
            above = {d: union(succ[d] & doms, by_dom) for d in by_dom}
            under = {c: union(pred[c] & cods, by_cod) for c in by_cod}
            for j, di, ci in arrows:
                src = above[di] & under[ci] & ~pred[j]
                if src:
                    grew |= below(union(src, pred), j)
        if not grew:
            return index, succ


def oracle_relation(spec: TheorySpec, atoms, bound: int):
    """The saturated subtype relation over the types of size at most bound
    over atoms and the theory's constants, for bulk tests; kept with the
    theory (``TheorySpec.relation``) without validating it.  A universe of
    more than ``UNIVERSE_CAP`` types raises ``ResourceLimit``.

    Returns (index map type->i, successor bitmasks)."""
    atoms = spec.universe_atoms(atoms)
    return spec.relation(("oracle", atoms, bound), lambda: _saturate(spec, atoms, bound))


def leq_oracle(spec: TheorySpec, a: Type, b: Type, universe_bound: int) -> OracleResult:
    """Semi-decision by saturation: YES is sound; NOT_FOUND only means no
    derivation fits inside the universe."""
    index, succ = oracle_relation(spec, type_atoms(a) | type_atoms(b), universe_bound)
    if a not in index or b not in index:
        return OracleResult.NOT_FOUND
    if (succ[index[a]] >> index[b]) & 1:
        return OracleResult.YES
    return OracleResult.NOT_FOUND
