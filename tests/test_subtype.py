import gc
import hashlib
import json
import random
import tracemalloc
import weakref

import pytest

from itypes import subtype, theory
from itypes.errors import ResourceLimit, UnsupportedTheory
from itypes.laws import _universe, preorder_laws
from itypes.subtype import (
    OracleResult,
    Proof,
    _heads,
    arrow_heads,
    canonical,
    canonical_types,
    check_proof,
    enumerate_types,
    eq,
    leq,
    leq_oracle,
    leq_trace,
    normalize,
    oracle_relation,
    proof_to_json,
)
from itypes.syntax import (
    Arrow,
    Atom,
    Inter,
    conjuncts,
    parse_type as P,
    print_type,
    type_atoms,
)
from itypes.theory import (
    BA_RULES,
    NamedTheory,
    Rule,
    make_spec,
    named_theory,
    spec_from_json,
)

from theory_gen import SPECS, generated_spec


# ---------------------------------------------------------------- golden table


def test_bcd_omega_equals_omega_arrow_omega(bcd):
    assert eq(bcd, P("omega"), P("omega -> omega"))


def test_arrow_intersection_distributes(bcd):
    assert leq(bcd, P("(a -> b) & (a -> c)"), P("a -> b & c"))


def test_ao_lazy_axiom(ao):
    assert leq(ao, P("a -> b"), P("omega -> omega"))
    assert not leq(ao, P("omega"), P("omega -> omega"))


def test_ehr_arrows_below_nu(ehr):
    assert leq(ehr, P("a -> b"), P("nu"))
    assert not leq(ehr, P("a"), P("nu"))


def test_ba_distinct_atoms_unrelated(ba):
    assert not leq(ba, P("a"), P("b"))
    assert not leq(ba, P("b"), P("a"))


# the omega-lazy theory with a = b -> b, as CI's eq.json writes it
_LAZY_EQ = {
    "atoms": ["a", "b"], "omega": True,
    "rules": ["arrow-inter", "eta", "omega-lazy", "omega-top"],
    "equations": {"a": "b -> b"},
}


@pytest.mark.parametrize(
    "theory, lhs, rhs, want",
    [
        ("ao", "a -> b", "c -> omega", True),
        ("ao", "a", "c -> omega", False),
        ("ao", "a -> b", "c -> omega -> omega", False),
        ("ao", "omega", "a -> omega", False),
        ("bcd", "a", "b -> omega -> omega", True),
        ("bcd", "omega", "a -> omega", True),
        ("eq", "a", "a -> omega", True),
        ("eq", "b", "a -> omega", False),
    ],
)
def test_arrow_target_with_an_omega_codomain(theory, lhs, rhs, want):
    # omega -> omega decides these only as an arrow head of the left side
    if theory == "eq":
        spec = spec_from_json(_LAZY_EQ)
    else:
        spec = named_theory(NamedTheory(theory), 3)
    a, b = P(lhs, spec), P(rhs, spec)
    assert leq(spec, a, b) is want
    p = leq_trace(spec, a, b)
    assert (p is not None) is want
    if want:
        assert p.lhs is a and p.rhs is b and check_proof(spec, p)


# ---------------------------------------------------------------- structure


def test_eta_contravariance(ba):
    assert leq(ba, P("a -> b"), P("a & b -> b"))
    assert not leq(ba, P("a & b -> b"), P("a -> b"))


def test_intersection_projections(ba):
    t = P("a & (a -> b)")
    assert leq(ba, t, P("a"))
    assert leq(ba, t, P("a -> b"))
    assert not leq(ba, P("a"), t)


def test_beta_soundness_needs_joint_selection(bcd):
    # only the union of both arrows reaches b & c
    assert leq(bcd, P("(a -> b) & (a -> c)"), P("a -> b & c"))
    assert not leq(bcd, P("a -> b"), P("a -> b & c"))


def test_omega_codomain_shortcut(bcd, ao):
    assert leq(bcd, P("a"), P("b -> omega"))
    # lazy theories need an arrow on the left first
    assert not leq(ao, P("a"), P("b -> omega"))
    assert leq(ao, P("a -> b"), P("c -> omega"))


def test_atom_equations_unfold_both_ways():
    spec = make_spec({"a", "b"}, BA_RULES, {"a": P("b -> b")})
    assert eq(spec, P("a"), P("b -> b"))
    assert leq(spec, P("a & b"), P("b -> b"))
    assert leq(spec, P("(b -> b) & b"), P("a"))


def test_equation_chain_composes():
    spec = make_spec(
        {"a", "b", "c"},
        BA_RULES,
        {"a": P("b -> b"), "b": P("c -> c")},
    )
    assert eq(spec, P("a"), P("b -> b"))
    assert leq(spec, P("a"), P("(c -> c) -> b"))


def test_non_ba_spec_rejected():
    spec = make_spec({"a"}, frozenset({Rule.ETA}))
    with pytest.raises(UnsupportedTheory):
        leq(spec, P("a"), P("a"))


@pytest.mark.parametrize("lhs,rhs", [("a", "b"), ("a", "b -> a"), ("b", "a -> b")])
def test_invalid_spec_rejected(lhs, rhs):
    # cyclic equations: deciding would recurse without end
    spec = make_spec({"a", "b"}, BA_RULES, {"a": P("b -> b"), "b": P("a -> a")})
    with pytest.raises(UnsupportedTheory):
        leq(spec, P(lhs), P(rhs))
    with pytest.raises(UnsupportedTheory):
        leq_trace(spec, P(lhs), P(rhs))


def test_memo_tables_are_cleared_at_cap(monkeypatch):
    types = enumerate_types({"a", "b", "omega"}, 4)
    universes = [
        (atoms, size)
        for atoms in ({"a"}, {"a", "omega"}, {"a", "b", "omega"})
        for size in range(1, 5)
    ]

    def answers(spec):
        return (
            [[leq(spec, a, b) for b in types] for a in types],
            [[leq_trace(spec, a, b) for b in types] for a in types],
            [canonical(spec, t) for t in types],
            [canonical_types(spec, atoms, size) for atoms, size in universes],
        )

    want = answers(named_theory(NamedTheory.BCD, 2))
    monkeypatch.setattr(subtype, "TABLE_CAP", 8)
    capped = named_theory(NamedTheory.BCD, 2)  # a new spec has new tables
    assert answers(capped) == want
    tables = capped.tables
    assert 0 < sum(len(row) for row in tables.leq.values()) <= 8
    for table in (tables.heads, tables.head_proofs, tables.proofs[1],
                  tables.omega_tails, tables.canon):
        assert 0 < len(table) <= 8


def test_relations_keep_at_most_the_cap(monkeypatch):
    # canonical pools are kept with the theory's other whole-universe values;
    # past RELATION_CAP the oldest goes, and a dropped pool is made again
    monkeypatch.setattr(theory, "RELATION_CAP", 2)
    spec = named_theory(NamedTheory.BCD, 1)
    atoms = spec.universe_atoms({"a"})
    pools = {size: canonical_types(spec, atoms, size) for size in (1, 3, 4)}
    assert list(spec._relations) == [("pool", atoms, 3), ("pool", atoms, 4)]
    assert canonical_types(spec, atoms, 4) is pools[4]
    again = canonical_types(spec, atoms, 1)
    assert again == pools[1] and again is not pools[1]
    assert list(spec._relations) == [("pool", atoms, 4), ("pool", atoms, 1)]
    leq_oracle(spec, Atom("a"), Atom("omega"), 3)
    assert len(spec._relations) == 2 and ("pool", atoms, 1) in spec._relations


def test_memo_bytes_per_entry():
    # The leq memo keeps one row per left type, a dict from an atom or arrow
    # right type to decision, so a decision costs one dict slot and no key
    # tuple; an intersection target is decided from its parts and not kept.
    # Freeing the memo of the bcd size-5 matrix (237 types, 28,320 decisions;
    # 55,932 while intersection targets were kept) gives back about 39 traced
    # bytes per decision; keyed by (a, b) tuples in one dict it gave back
    # about 101.
    tracemalloc.start()
    try:
        spec = named_theory(NamedTheory.BCD, 2)
        tables = spec.tables
        _universe(spec, frozenset({"a", "b"}), 5)
        entries = sum(len(row) for row in tables.leq.values())
        inter_keys = sum(isinstance(b, Inter) for row in tables.leq.values() for b in row)
        full = tracemalloc.get_traced_memory()[0]
        tables.leq.clear()
        freed = full - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries == tables.leq_size == 28_320
    assert inter_keys == 0
    assert freed / entries < 64


@pytest.mark.parametrize("which", [NamedTheory.BCD, NamedTheory.AO])
def test_intersection_column_is_the_meet_of_its_parts(which):
    # the meet is a greatest lower bound: a <= l & r exactly when a <= l and
    # a <= r, so an intersection target is decided from its parts, not kept
    spec = named_theory(which, 2)
    types, index, rows = _universe(spec, frozenset({"a", "b"}), 5)

    def column(j):
        return [(row >> j) & 1 for row in rows]

    inters = [(j, t) for j, t in enumerate(types) if isinstance(t, Inter)]
    assert inters
    for j, t in inters:
        left, right = column(index[t.left]), column(index[t.right])
        assert column(j) == [x & y for x, y in zip(left, right)]
    keys = [b for row in spec.tables.leq.values() for b in row]
    assert keys and not any(isinstance(b, Inter) for b in keys)


def _matrix(spec, size, order=None):
    types = enumerate_types(spec.universe_atoms({"a", "b"}), size)
    pairs = [(i, j) for i in range(len(types)) for j in range(len(types))]
    if order is not None:
        order.shuffle(pairs)
    return sorted(((i, j), leq(spec, types[i], types[j])) for i, j in pairs)


def test_head_selection_leaks_nothing_across_queries():
    # the last head selection is reused only for the same left type and
    # domain, so no query order changes an answer
    rng = random.Random(25)
    for which in NamedTheory:
        want = _matrix(named_theory(which, 2), 4)
        assert _matrix(named_theory(which, 2), 4, rng) == want
    # the first query selects the heads of its left type at domain a; each
    # of the others shares only the domain or only the left type with it
    queries = [(P(a), P(b)) for a, b in [("(a -> b) & (c -> b)", "a -> b"),
                                         ("c -> b", "a -> b"),
                                         ("(a -> b) & (c -> b)", "b -> b")]]
    for which in NamedTheory:
        alone = [leq(named_theory(which, 3), a, b) for a, b in queries]
        assert alone == [True, False, False]
        for order in ([0, 1, 2], [0, 2, 1]):
            spec = named_theory(which, 3)
            assert [leq(spec, *queries[i]) for i in order] == [alone[i] for i in order]
        spec = named_theory(which, 3)
        leq(spec, *queries[0])
        last = spec.tables.selection
        assert last[0] is queries[0][0] and last[1] is Atom("a")


def test_matrix_is_unchanged_under_a_small_cap(monkeypatch):
    want = _universe(named_theory(NamedTheory.BCD, 2), frozenset({"a", "b"}), 4)[2]
    monkeypatch.setattr(subtype, "TABLE_CAP", 64)
    capped = named_theory(NamedTheory.BCD, 2)  # a new spec has new tables
    assert _universe(capped, frozenset({"a", "b"}), 4)[2] == want
    assert 0 < capped.tables.leq_size <= 64


def test_shared_intersection_part_is_expanded_once(ba):
    # a target doubled 60 times has 2**60 paths to its leaf and 61 nodes;
    # a right-nested one 5000 deep needs no recursion
    t = Atom("a")
    for _ in range(60):
        t = Inter(t, t)
    assert leq(ba, Inter(Atom("b"), Atom("a")), t)
    assert not leq(ba, Atom("b"), t)
    right = Atom("a")
    for _ in range(5000):
        right = Inter(Atom("a"), right)
    assert leq(ba, Atom("a"), right) and not leq(ba, Atom("b"), right)


def test_deep_type_is_below_itself(ba):
    t = Atom("a")
    for _ in range(600):
        t = Arrow(t, Atom("b"))
    assert leq(ba, t, t)


# ---------------------------------------------------------------- traces


def test_positive_answers_carry_checkable_traces(bcd):
    pairs = [
        ("omega", "omega -> omega"),
        ("(a -> b) & (a -> c)", "a -> b & c"),
        ("a & b", "b & a"),
        ("a -> b", "a & c -> b"),
    ]
    for lhs, rhs in pairs:
        p = leq_trace(bcd, P(lhs), P(rhs))
        assert p is not None
        assert p.lhs == P(lhs) and p.rhs == P(rhs)
        assert check_proof(bcd, p)


def test_traces_match_golden_digest(all_theories):
    # sha256 of every trace (None for a refuted pair) over the size-4
    # universes; it pins the traces as well as the verdicts
    digest = hashlib.sha256()
    for name in ("ba", "ehr", "ao", "bcd"):
        spec = all_theories[name]
        types = enumerate_types(spec.universe_atoms({"a", "b"}), 4)
        for a in types:
            for b in types:
                trace = leq_trace(spec, a, b)
                data = proof_to_json(trace) if trace is not None else None
                digest.update(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "3d47a4b13a3d3b52a9aea5290d3f1f8e8240d60070d76169bc126405e6144233"
    )


def test_traces_of_one_left_type_share_their_subproofs():
    # the trace of a <= l & r is idem, then mon over the traces of a <= l
    # and a <= r that the same left type's earlier calls returned
    spec = named_theory(NamedTheory.BCD, 2)
    a, l, r = P("(a -> b) & (b -> a & b)"), P("a -> b"), P("b -> a")
    pl, pr = leq_trace(spec, a, l), leq_trace(spec, a, r)
    p = leq_trace(spec, a, Inter(l, r))
    assert check_proof(spec, p)
    mon = p.premises[1]
    assert mon.rule == "mon" and mon.premises[0] is pl and mon.premises[1] is pr
    # a trace through omega -> omega is the left type's last head proof, by
    # omega-eta in bcd and omega-lazy in ao, then the target's omega tail,
    # which the traces of every left type share
    for which, left, other, target in (
        (NamedTheory.BCD, "a", "b", "b -> omega"),
        (NamedTheory.AO, "a -> b", "b -> b", "c -> omega"),
    ):
        spec = named_theory(which, 3)
        left, target = P(left), P(target)
        p, q = leq_trace(spec, left, target), leq_trace(spec, P(other), target)
        assert check_proof(spec, p) and check_proof(spec, q)
        assert p.premises[0] is _heads(spec, left, True)[-1].proof
        assert p.premises[1] is q.premises[1]
    assert p.premises[0].rule == "omega-lazy"  # the bare node, as a -> b is one head
    # the proof row and the omega -> omega tails change no trace: traces
    # built in row order and in a shuffled order print the same
    rng = random.Random(7)
    for which in NamedTheory:
        types = enumerate_types(named_theory(which, 2).universe_atoms({"a", "b"}), 4)
        pairs = [(x, y) for x in types for y in types]
        shuffled = rng.sample(pairs, len(pairs))
        traces = []
        for order in (pairs, shuffled):
            spec = named_theory(which, 2)  # a new spec has new tables
            built = {(x, y): leq_trace(spec, x, y) for x, y in order}
            traces.append({k: proof_to_json(q) for k, q in built.items() if q is not None})
        assert traces[0] == traces[1]
        assert traces[0]


def test_arrow_heads_match_their_proofs(all_theories):
    # the generated specs have equated atoms under omega-eta, omega-lazy and
    # neither
    spec_eq = make_spec({"a", "b"}, BA_RULES, {"a": P("(b -> b) & (b & b -> b)")})
    cases = [(spec, {"a", "b"}) for spec in [*all_theories.values(), spec_eq]]
    cases += [(spec, spec.plain_atoms) for spec in SPECS]
    for spec, atoms in cases:
        for t in enumerate_types(spec.universe_atoms(atoms), 4):
            heads = _heads(spec, t, True)
            assert tuple(h.arrow for h in heads) == arrow_heads(spec, t)
            assert all(h.proof.lhs == t and h.proof.rhs == h.arrow for h in heads)
            assert all(check_proof(spec, h.proof) for h in heads)


def test_trace_over_many_arrow_heads(ba):
    # one head per conjunct: the trace combines 3,000 selected heads
    lhs = P(" & ".join(["(a -> a)"] * 3000))
    p = leq_trace(ba, lhs, P("a -> a"))
    assert p.lhs is lhs and p.rhs is P("a -> a")
    assert check_proof(ba, p)


def test_trace_is_none_on_failure(ba):
    assert leq_trace(ba, P("a"), P("b")) is None


def test_trace_folds_an_atom_equation():
    spec = make_spec({"a", "b"}, BA_RULES, {"a": P("b -> b")})
    p = leq_trace(spec, P("b -> b"), P("a"))
    assert (p.rule, p.lhs, p.rhs) == ("eq-fold", P("b -> b"), P("a"))
    assert check_proof(spec, p)


def test_checker_rejects_wrong_rule_instances(ba, bcd):
    bogus = Proof("omega-top", P("a"), P("omega"))
    assert not check_proof(ba, bogus)  # rule not in theory
    assert check_proof(bcd, bogus)
    assert not check_proof(bcd, Proof("omega-top", P("a"), P("b")))
    assert not check_proof(ba, Proof("refl", P("a"), P("b")))
    assert not check_proof(ba, Proof("incl-l", P("a & b"), P("b")))


def test_checker_rejects_bad_transitivity(ba):
    a, b = P("a"), P("b")
    bad = Proof("trans", a, b, (Proof("refl", a, a), Proof("refl", b, b)))
    assert not check_proof(ba, bad)


def test_proof_nodes_are_values():
    a, b = P("a"), P("a & b")
    p = Proof(rule="incl-l", lhs=b, rhs=a)
    assert p == Proof("incl-l", b, a, ())
    assert hash(p) == hash(Proof("incl-l", b, a))
    assert p.premises == ()
    assert (p.rule, p.lhs, p.rhs) == ("incl-l", b, a)
    assert p != Proof("incl-r", b, a)
    assert {p, Proof("incl-l", b, a)} == {p}
    with pytest.raises(AttributeError):
        p.rule = "refl"
    with pytest.raises(AttributeError):
        p.extra = 1


def test_deep_intersection_on_the_left(ba):
    a = Atom("a")
    t = a
    for _ in range(5000):
        t = Inter(Atom("b"), t)
    assert len(conjuncts(t)) == 5001
    assert leq(ba, t, a)
    p = leq_trace(ba, t, a)
    assert p.lhs is t and p.rhs is a
    assert check_proof(ba, p)


def test_checker_walks_deep_transitivity_chains(ba):
    a = Atom("a")

    def chain(bottom):
        p = bottom
        for _ in range(5000):
            p = Proof("trans", a, a, (p, Proof("refl", a, a)))
        return p

    assert check_proof(ba, chain(Proof("refl", a, a)))
    # links up with its parent but is no instance of incl-l
    assert not check_proof(ba, chain(Proof("incl-l", a, a)))


# ---------------------------------------------------------------- normal forms


def test_normalize_flattens_and_sorts(bcd):
    assert canonical(bcd, P("(a & b) & a")) == canonical(bcd, P("b & a"))
    assert normalize(bcd, P("a & a")) == normalize(bcd, P("a"))
    assert normalize(bcd, P("(b -> a) & a & b")) == (P("a"), P("b"), P("b -> a"))


def test_normalize_drops_redundant_omega(bcd):
    assert canonical(bcd, P("omega & a")) == P("a")
    assert canonical(bcd, P("omega & omega")) == P("omega")


def test_canonical_preserves_equivalence(bcd):
    for src in ("a & b -> c", "(a -> b) & (b -> a)", "omega & (a -> omega)"):
        t = P(src)
        assert eq(bcd, t, canonical(bcd, t))


def test_canonical_is_idempotent(bcd):
    for t in enumerate_types({"a", "b", "omega"}, 4):
        ct = canonical(bcd, t)
        assert canonical(bcd, ct) == ct


# ---------------------------------------------------------------- enumeration


def test_enumerate_types_is_exhaustive_and_deterministic():
    types = enumerate_types({"a"}, 3)
    assert types == [Atom("a"), Arrow(Atom("a"), Atom("a")), Inter(Atom("a"), Atom("a"))]
    assert enumerate_types({"a"}, 3) == types


def test_enumerate_types_size_counts():
    # t(1)=2, t(3)=8, t(5)=64 over two atoms; even sizes are empty
    assert len(enumerate_types({"a", "b"}, 5)) == 2 + 8 + 64


def test_canonical_types_are_unique(bcd):
    out = canonical_types(bcd, {"a", "omega"}, 4)
    assert len(out) == len(set(out))
    for t in out:
        assert canonical(bcd, t) == t
    assert canonical_types(bcd, {"omega", "a"}, 4) is out


def test_canonical_forms_match_golden_digest():
    # sha256 of the canonical form of every size-5 type and of the size-3,
    # 4 and 5 candidate pools, in order; it pins the forms and the pool order
    digest = hashlib.sha256()
    for name in NamedTheory:
        spec = named_theory(name, 2)
        atoms = set(spec.atoms)
        for t in enumerate_types(atoms, 5):
            digest.update((print_type(canonical(spec, t)) + "\n").encode())
        for size in (3, 4, 5):
            for t in canonical_types(spec, atoms, size):
                digest.update((print_type(t) + ";").encode())
    assert digest.hexdigest() == (
        "13d8050b7a1002c43d61964113c451687f89be250bd1c086a7319d00d420b904"
    )


# ---------------------------------------------------------------- oracle


def test_oracle_confirms_decision_procedure(bcd):
    assert leq_oracle(bcd, P("omega"), P("omega -> omega"), 5) is OracleResult.YES
    assert leq_oracle(bcd, P("a & b"), P("b & a"), 5) is OracleResult.YES
    assert leq_oracle(bcd, P("a -> b"), P("a & b -> b"), 5) is OracleResult.YES


def test_oracle_not_found_is_not_a_refutation(bcd):
    # the pair holds but the witness universe is too small to see it
    assert leq_oracle(bcd, P("omega"), P("omega -> omega"), 1) is OracleResult.NOT_FOUND
    assert leq(bcd, P("omega"), P("omega -> omega"))


def test_oracle_seeds_arrow_inter():
    # an intersection of two arrows has 7 nodes, so only a size-7 universe
    # holds one; without arrow-inter no other rule gives the pair
    lhs, rhs = P("(a -> a) & (a -> b)"), P("a -> a & b")
    ba = named_theory(NamedTheory.BA, 2)
    assert leq_oracle(ba, lhs, rhs, 7) is OracleResult.YES
    eta_only = make_spec({"a", "b"}, {Rule.ETA})
    assert leq_oracle(eta_only, lhs, rhs, 7) is OracleResult.NOT_FOUND


def test_oracle_respects_universe_cap(bcd, monkeypatch):
    monkeypatch.setattr(subtype, "UNIVERSE_CAP", 100)
    with pytest.raises(ResourceLimit):
        leq_oracle(bcd, P("a"), P("b"), 9)


def test_dropped_theory_is_freed():
    # no module-global cache may keep a theory and its tables alive
    spec = named_theory(NamedTheory.BCD, 2)
    assert all(r.ok for r in preorder_laws(spec, {"a", "b"}, 3))
    assert leq_oracle(spec, P("a & b"), P("b & a"), 3) is OracleResult.YES
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_oracle_finds_nu_top(ehr):
    assert leq_oracle(ehr, P("a -> b"), P("nu"), 5) is OracleResult.YES


def _plain_fixpoint(spec, atoms, size):
    """The oracle's relation by rounds of trans, pairing and eta over every
    row until a round adds nothing: rows[i] bit j set iff types[i] <= types[j]."""
    types = enumerate_types(spec.universe_atoms(atoms), size)
    ix = {t: i for i, t in enumerate(types)}
    rules, om, oo = spec.rules, spec.omega, spec.omega_arrow
    # refl, omega-top, incl, arrow-inter, nu-top, omega-lazy, omega-eta, equations
    seeds = [(Atom(x), rhs) for x, rhs in spec.atom_equations]
    seeds += [(b, a) for a, b in seeds] + [(om, oo)] * spec.omega_eta
    for t in types:
        seeds += [(t, t)] + [(t, om)] * (Rule.OMEGA_TOP in rules)
        if isinstance(t, Inter):
            l, r = t.left, t.right
            seeds += [(t, l), (t, r)]
            if Rule.ARROW_INTER in rules and isinstance(l, Arrow) and isinstance(r, Arrow):
                seeds += [(t, Arrow(l.dom, Inter(l.cod, r.cod)))] * (l.dom == r.dom)
        if isinstance(t, Arrow):
            seeds += [(t, spec.nu)] * (Rule.NU_TOP in rules) + [(t, oo)] * spec.omega_lazy
    rows = [0] * len(types)
    for a, b in seeds:
        if a in ix and b in ix:
            rows[ix[a]] |= 1 << ix[b]
    has = lambda a, b: rows[ix[a]] >> ix[b] & 1  # noqa: E731
    while True:
        old = list(rows)
        for t in types:
            for k in types:
                if has(t, k):  # trans
                    rows[ix[t]] |= rows[ix[k]]
            for u in types:
                if (
                    isinstance(u, Inter) and has(t, u.left) and has(t, u.right)
                    or Rule.ETA in rules and isinstance(t, Arrow) and isinstance(u, Arrow)
                    and has(u.dom, t.dom) and has(t.cod, u.cod)
                ):
                    rows[ix[t]] |= 1 << ix[u]
        if rows == old:
            return ix, rows


def test_oracle_equals_a_plain_fixpoint():
    # oracle agreement only checks the oracle's pairs against leq, so an
    # oracle that drops pairs passes it: this compares it with a plain
    # fixpoint of the same rules, the generated specs at size 3 and the
    # named theories at size 5
    cases = [(generated_spec(random.Random(s)), 3) for s in range(100)]
    cases += [(named_theory(which, 2), 5) for which in NamedTheory]
    for spec, size in cases:
        index, succ = oracle_relation(spec, spec.plain_atoms, size)
        assert (index, succ) == _plain_fixpoint(spec, spec.plain_atoms, size), spec


# ---------------------------------------------------------------- shared intersection nodes


def _doubled(t, k=60):
    for _ in range(k):
        t = Inter(t, t)
    return t


@pytest.mark.parametrize("name", ["ba", "ehr", "ao", "bcd"])
def test_doubled_type_is_walked_once_per_node(all_theories, name):
    # 2**60 paths to a leaf, 61 distinct nodes.  Each check is named, since
    # a failed assertion on the type itself would print all of its paths.
    spec = all_theories[name]
    a, arrow = P("a"), P("a -> b")
    t, u = _doubled(a), _doubled(arrow)
    heads = tuple(h.arrow for h in _heads(spec, u, True))
    checks = {
        "t <= a": leq(spec, t, a),
        "not t <= b": not leq(spec, t, P("b")),
        "normalize": normalize(spec, t) == (a,),
        "trace of t <= a": check_proof(spec, leq_trace(spec, t, a)),
        "trace of u <= a -> b": check_proof(spec, leq_trace(spec, u, arrow)),
        "head proofs": heads == arrow_heads(spec, u),
        "type_atoms": type_atoms(t) == {"a"},
        # a repeated leaf stays, a repeated intersection node is expanded once
        "conjuncts": conjuncts(t) == [a, a],
    }
    assert [check for check, ok in checks.items() if not ok] == []
