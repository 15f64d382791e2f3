import random

import pytest

from itypes.assign import SearchBudget, Verdict, derives
from itypes.errors import EmptyEnvFilter
from itypes.filters import (
    FiniteFilter,
    apply,
    filter_leq,
    interpret_member,
    make_abstraction_filter,
    member,
    phi_membership,
    up,
)
from itypes.laws import filter_laws
from itypes.subtype import arrow_heads, canonical, canonical_types, eq, leq
from itypes.syntax import Arrow, inter_of, parse_term as T, parse_type as P

from theory_gen import SPECS, generated_spec

EMPTY = FiniteFilter(None)


# ---------------------------------------------------------------- membership


def test_empty_filter_is_up_omega_when_omega_present(bcd):
    assert member(bcd, EMPTY, P("omega"))
    assert member(bcd, EMPTY, P("omega -> omega"))  # omega ~ omega -> omega
    assert not member(bcd, EMPTY, P("a"))


def test_empty_filter_is_empty_without_omega(ba):
    assert not member(ba, EMPTY, P("a"))
    assert not member(ba, EMPTY, P("a -> a"))


def test_principal_membership_is_subtyping(bcd):
    x = up(P("a & b"))
    assert member(bcd, x, P("a"))
    assert member(bcd, x, P("b & a"))
    assert not member(bcd, x, P("a -> b"))


def test_multi_generator_collapses_to_intersection(ba):
    x = up(P("a -> b"), P("a"))
    assert member(ba, x, P("(a -> b) & a"))
    assert member(ba, x, P("a -> b"))
    assert member(ba, x, P("a"))


# ---------------------------------------------------------------- application


def test_apply_single_arrow(bcd):
    r = apply(bcd, up(P("a -> b")), up(P("a")))
    assert eq(bcd, r.generator, P("b"))


def test_apply_joins_matching_arrows(bcd):
    r = apply(bcd, up(P("(a -> b) & (a -> c)")), up(P("a")))
    assert eq(bcd, r.generator, P("b & c"))


def test_apply_up_omega_to_anything_is_up_omega(bcd):
    r = apply(bcd, up(P("omega")), up(P("a")))
    assert r.generator is not None
    assert eq(bcd, r.generator, P("omega"))


def test_apply_no_matching_arrow_gives_bottom(ba):
    r = apply(ba, up(P("a -> b")), up(P("b")))
    assert r.generator is None


def test_apply_empty_without_omega_gives_empty(ba):
    assert apply(ba, EMPTY, up(P("a"))).generator is None
    assert apply(ba, up(P("a -> b")), EMPTY).generator is None


def test_apply_uses_domain_weakening(ehr):
    # a & c is in up(a), so the arrow fires
    r = apply(ehr, up(P("a -> b")), up(P("a & c")))
    assert eq(ehr, r.generator, P("b"))


# member, filter_leq and apply written out directly, each with its own head
# selection and its own case for the filter of the empty set: the reference
# that the library's versions must agree with, generator for generator.


def _member_ref(spec, x, a):
    if x.generator is None:
        return spec.has_omega and leq(spec, spec.omega, a)
    return leq(spec, x.generator, a)


def _filter_leq_ref(spec, x, y):
    if x.generator is None:
        return True if not spec.has_omega else _member_ref(spec, y, spec.omega)
    return _member_ref(spec, y, x.generator)


def _apply_ref(spec, x, y):
    gen = x.generator
    if gen is None:
        if not spec.has_omega:
            return FiniteFilter(None)
        gen = spec.omega
    cods = [h.cod for h in arrow_heads(spec, gen) if _member_ref(spec, y, h.dom)]
    if not cods:
        return FiniteFilter(None)
    return FiniteFilter(canonical(spec, inter_of(cods)))


@pytest.mark.parametrize("theory", ["ba", "ehr", "ao", "bcd", *range(len(SPECS))])
def test_filter_operations_agree_with_the_reference(all_theories, theory):
    spec = all_theories[theory] if isinstance(theory, str) else SPECS[theory]
    pool = canonical_types(spec, spec.universe_atoms(spec.plain_atoms[:2]), 4)
    filters = [EMPTY] + [up(t) for t in pool]
    for x in filters:
        for y in filters:
            # the reference first, then the present code, then the reference
            # again: each runs with the selection slot the other left
            want = _apply_ref(spec, x, y).generator
            assert apply(spec, x, y).generator is want
            assert _apply_ref(spec, x, y).generator is want
            assert filter_leq(spec, x, y) == _filter_leq_ref(spec, x, y)
        for t in pool:
            assert member(spec, x, t) == _member_ref(spec, x, t)


# ---------------------------------------------------------------- prop simple


@pytest.mark.parametrize(
    "theory,x,a,b",
    [
        ("bcd", "omega -> omega", "a", "omega"),
        ("ba", "a -> b", "a", "b"),
        ("ehr", "(a -> b) & (c -> a)", "a & c", "b & a"),
    ],
)
def test_prop_simple_instances(all_theories, theory, x, a, b):
    spec, x, a, b = all_theories[theory], up(P(x)), P(a), P(b)
    # b in x . up(a) iff a -> b in x
    assert member(spec, apply(spec, x, up(a)), b) == member(spec, x, Arrow(a, b))


def test_filter_laws_check_a_fixed_number_of_instances(bcd):
    # pins the work of each law, so that reshaping its loops keeps it
    results = filter_laws(bcd, {"a", "b"}, 4)
    assert [(r.name, r.checked, r.ok) for r in results] == [
        ("filter-upward-closure", 289, True),
        ("filter-inter-closure", 361, True),
        ("prop-simple", 2197, True),
        ("apply-monotone", 938, True),
    ]


# ---------------------------------------------------------------- abstraction map


def test_abstraction_filter_includes_nu(ehr):
    g = make_abstraction_filter(ehr, [(P("a"), P("b"))])
    assert eq(ehr, g.generator, P("(a -> b) & nu"))


def test_abstraction_filter_empty_table(ba, ehr, bcd):
    assert make_abstraction_filter(ba, []).generator is None
    assert eq(ehr, make_abstraction_filter(ehr, []).generator, P("nu"))
    assert eq(bcd, make_abstraction_filter(bcd, []).generator, P("omega"))


@pytest.mark.parametrize("theory", ["ao", "bcd"])
def test_abstraction_filter_holds_omega_arrow(all_theories, theory):
    # every filter holds omega, so a step function's filter holds A -> omega
    # for every A, and so omega -> omega, as the search derives for any
    # abstraction, even one whose body has no normal form
    spec = all_theories[theory]
    oo = spec.omega_arrow
    assert derives(spec, {}, T(r"\x. (\y. y y) (\y. y y)"), oo)[0] is Verdict.YES
    for table in ([], [(P("a"), P("b"))], [(P("a"), P("b")), (P("b"), P("a"))]):
        f = make_abstraction_filter(spec, table)
        assert member(spec, f, oo)
        assert phi_membership(spec, f)
        for a, b in table:
            assert member(spec, f, Arrow(a, b))


def test_abstraction_filter_holds_omega_arrow_in_generated_theories():
    a = P("a")
    for seed in range(200):
        spec = generated_spec(random.Random(seed))
        empty = make_abstraction_filter(spec, [])
        if spec.has_omega:
            assert member(spec, empty, spec.omega_arrow), seed
            one = make_abstraction_filter(spec, [(a, a)])
            assert member(spec, one, spec.omega_arrow), seed
        if spec.has_nu or spec.omega_eta or spec.omega_lazy:
            assert phi_membership(spec, empty), seed


def test_abstraction_then_apply_recovers_table(bcd):
    g = make_abstraction_filter(bcd, [(P("a"), P("b")), (P("a"), P("c"))])
    r = apply(bcd, g, up(P("a")))
    assert eq(bcd, r.generator, P("b & c"))


# ---------------------------------------------------------------- functionality set


def test_phi_membership_by_theory(bcd, ao, ehr, ba):
    assert phi_membership(bcd, up(P("omega")))
    assert not phi_membership(ao, up(P("omega")))
    assert phi_membership(ao, up(P("a -> b")))
    assert phi_membership(ehr, up(P("a -> b")))
    assert not phi_membership(ehr, up(P("a")))
    assert phi_membership(ba, up(P("a")))  # no omega, no nu: everything counts


# ---------------------------------------------------------------- interpretation


def test_interpret_variable(bcd):
    assert interpret_member(bcd, T("x"), {"x": up(P("a"))}, P("a")) is Verdict.YES


def test_interpret_unsolvable_at_omega(ao):
    m = T(r"(\x. x x) (\x. x x)")
    v = interpret_member(ao, m, {}, P("omega"), SearchBudget(3, 16))
    assert v is Verdict.YES


def test_interpret_identity(ba):
    assert interpret_member(ba, T(r"\x. x"), {}, P("a -> a")) is Verdict.YES


def test_interpret_rejects_empty_env_value_without_omega(ba):
    with pytest.raises(EmptyEnvFilter):
        interpret_member(ba, T("x"), {"x": EMPTY}, P("a"))


def test_interpret_empty_env_value_with_omega_is_up_omega(bcd):
    assert interpret_member(bcd, T("x"), {"x": EMPTY}, P("omega")) is Verdict.YES
    assert interpret_member(bcd, T("x"), {"x": EMPTY}, P("a")) is not Verdict.YES


# ---------------------------------------------------------------- order


def test_filter_leq_is_reverse_generator_order(bcd):
    assert filter_leq(bcd, up(P("a")), up(P("a & b")))
    assert not filter_leq(bcd, up(P("a & b")), up(P("a")))
    assert filter_leq(bcd, EMPTY, up(P("a")))
