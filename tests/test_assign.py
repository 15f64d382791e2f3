import itertools
import sys

import pytest

import itypes
from itypes.assign import (
    Derivation,
    SearchBudget,
    Verdict,
    check_derivation,
    derivation_error,
    derivation_from_json,
    derivation_to_json,
    derives,
    infer_types,
    make_derivation,
    _bind,
    _ctx_tuple,
    _lookup,
    _Search,
)
from itypes.errors import UnknownAtomError, UnsupportedTheory
from itypes.laws import (
    _random_term,
    admissible_rule_suite,
    hindley_rule_check,
    random_judgments,
    search_soundness_law,
    spine_filter_law,
    subject_reduction_law,
)
from itypes.syntax import (
    App,
    Arrow,
    Atom,
    Inter,
    Lam,
    Var,
    inter_of,
    parse_term as T,
    parse_type as P,
)
from itypes.theory import BA_RULES, NamedTheory, Rule, make_spec, named_theory

DELTA = r"\x. x x"
OMEGA_TERM = rf"({DELTA}) ({DELTA})"
SMALL = SearchBudget(max_candidate_type_size=4, max_depth=24)


# ---------------------------------------------------------------- derivation checking


def _ident_derivation(ctx, ty):
    # \x. x : A -> A via Ax under the binder
    inner = make_derivation("Ax", {**ctx, "x": ty.dom}, T("x"), ty.dom)
    return make_derivation("ArrowI", ctx, T(r"\x. x"), ty, (inner,))


def test_check_accepts_identity_derivation(ba):
    d = _ident_derivation({}, P("a -> a"))
    assert check_derivation(ba, d)


def test_check_rejects_wrong_premise_context(ba):
    inner = make_derivation("Ax", {"x": P("b")}, T("x"), P("b"))
    d = make_derivation("ArrowI", {}, T(r"\x. x"), P("a -> a"), (inner,))
    assert not check_derivation(ba, d)
    assert derivation_error(ba, d) == ()


def test_error_path_points_into_tree(ba):
    bad_inner = make_derivation("Ax", {"x": P("a")}, T("x"), P("b"))
    d = make_derivation("ArrowI", {}, T(r"\x. x"), P("a -> b"), (bad_inner,))
    assert derivation_error(ba, d) == (0,)
    # the first incorrect node in preorder: here under the second premise
    ctx = {"x": P("b -> a"), "y": P("a")}
    fun = make_derivation("Ax", ctx, T("x"), P("b -> a"))
    bad_leaf = make_derivation("Ax", ctx, T("y"), P("b"))
    arg = make_derivation("Leq", ctx, T("y"), P("b"), (bad_leaf,))
    d = make_derivation("ArrowE", ctx, T("x y"), P("a"), (fun, arg))
    assert derivation_error(ba, d) == (1, 0)


def test_ax_omega_only_with_omega(ba, ao):
    d = make_derivation("AxOmega", {}, T(OMEGA_TERM), Atom("omega"))
    assert check_derivation(ao, d)
    assert not check_derivation(ba, d)


def test_ax_nu_only_for_abstractions(ehr):
    good = make_derivation("AxNu", {}, T(r"\x. x"), Atom("nu"))
    bad = make_derivation("AxNu", {}, T("y"), Atom("nu"))
    assert check_derivation(ehr, good)
    assert not check_derivation(ehr, bad)


def test_leq_node_verified_against_theory(ba):
    ax = make_derivation("Ax", {"x": P("a & b")}, T("x"), P("a & b"))
    good = make_derivation("Leq", {"x": P("a & b")}, T("x"), P("a"), (ax,))
    bad = make_derivation(
        "Leq", {"x": P("a")}, T("x"), P("b"),
        (make_derivation("Ax", {"x": P("a")}, T("x"), P("a")),),
    )
    assert check_derivation(ba, good)
    assert not check_derivation(ba, bad)


def test_leq_node_checked_without_trusting_the_decider(ba, monkeypatch):
    # a decider that accepts every pair passes no Leq step: the step needs
    # a proof trace that check_proof accepts
    import itypes.assign

    monkeypatch.setattr(itypes.assign, "leq", lambda spec, a, b: True)
    ax = make_derivation("Ax", {"x": P("a")}, T("x"), P("a"))
    bad = make_derivation("Leq", {"x": P("a")}, T("x"), P("b"), (ax,))
    assert not check_derivation(ba, bad)
    assert derivation_error(ba, bad) == ()


def test_leq_node_needs_a_proof_of_its_own_step(ba, monkeypatch):
    # a prover that proves some other step passes no Leq step: the trace's
    # root must be the node's step
    import itypes.assign
    from itypes.subtype import Proof

    monkeypatch.setattr(itypes.assign, "leq_trace", lambda spec, a, b: Proof("refl", a, a))
    ax = make_derivation("Ax", {"x": P("a")}, T("x"), P("a"))
    bad = make_derivation("Leq", {"x": P("a")}, T("x"), P("b"), (ax,))
    assert not check_derivation(ba, bad)
    assert derivation_error(ba, bad) == ()


# ---------------------------------------------------------------- golden typings


def test_ba_types_self_application(ba):
    v, d = derives(ba, {}, T(DELTA), P("(a -> b) & a -> b"))
    assert v is Verdict.YES
    assert check_derivation(ba, d)


def test_ao_types_k_of_unsolvable(ao):
    v, d = derives(ao, {}, T(rf"(\y. \x. x) ({OMEGA_TERM})"), P("a -> a"))
    assert v is Verdict.YES
    assert check_derivation(ao, d)
    # subject expansion gives the dropped argument omega
    assert d.premises[1].rule == "AxOmega"


def test_ehr_types_k_of_frozen_unsolvable(ehr):
    v, d = derives(ehr, {}, T(rf"(\y. \x. x) (\z. {OMEGA_TERM})"), P("a -> a"))
    assert v is Verdict.YES
    assert check_derivation(ehr, d)


def test_search_deeper_than_the_stack_is_unknown(ba):
    # a long chain of head contractions runs on a loop; each unfolding of
    # Y g nests Python frames, and a budget this deep outruns the stack
    big = SearchBudget(6, 1000)
    assert derives(ba, {}, T(OMEGA_TERM), P("a -> a"), big)[0] is Verdict.UNKNOWN
    y_g = T(r"(\f. (\x. f (x x)) (\x. f (x x))) g")
    v, _ = derives(ba, {"g": P("a -> a")}, y_g, P("a -> a"), big)
    assert v is Verdict.UNKNOWN


def test_ehr_never_types_k_of_unsolvable(ehr):
    # the dropped argument never reaches a head normal form, so it gets no
    # type, and nothing refutes it either
    for budget in (SMALL, SearchBudget()):
        v, _ = derives(ehr, {}, T(rf"(\y. \x. x) ({OMEGA_TERM})"), P("a -> a"), budget)
        assert v is Verdict.UNKNOWN


# ---------------------------------------------------------------- search behaviour


def test_variable_case_is_exact(ba):
    assert derives(ba, {"x": P("a")}, T("x"), P("a"))[0] is Verdict.YES
    assert derives(ba, {"x": P("a & b")}, T("x"), P("a"))[0] is Verdict.YES
    assert derives(ba, {"x": P("a")}, T("x"), P("b"))[0] is Verdict.NO
    assert derives(ba, {}, T("x"), P("a"))[0] is Verdict.NO


def test_abstraction_against_plain_atom_is_no(ba):
    assert derives(ba, {}, T(r"\x. x"), P("a"))[0] is Verdict.NO


def test_abstraction_against_nu_and_omega(ehr, ao):
    assert derives(ehr, {}, T(r"\x. {}".format(OMEGA_TERM)), P("nu"))[0] is Verdict.YES
    assert derives(ao, {}, T(OMEGA_TERM), P("omega"))[0] is Verdict.YES


def test_abstraction_decomposes_intersections(ba):
    v, d = derives(ba, {}, T(r"\x. x"), P("(a -> a) & (b -> b)"))
    assert v is Verdict.YES
    assert check_derivation(ba, d)


def test_headless_application_refuted(ba):
    # x has no functional type at all, so x y can never be typed
    assert derives(ba, {"x": P("a"), "y": P("b")}, T("x y"), P("a"))[0] is Verdict.NO


@pytest.mark.parametrize("name", ["ao", "bcd"])
def test_unbound_head_and_headless_step_refuted_with_omega(all_theories, name):
    # such a spine has only the types above omega, which the search answers
    # before it inverts the spine
    spec = all_theories[name]
    assert derives(spec, {}, T("x y"), P("a"))[0] is Verdict.NO
    assert derives(spec, {"x": P("a -> a")}, T("x y z"), P("a"))[0] is Verdict.NO


def test_unbound_head_refuted_beyond_the_depth(bcd):
    # the arguments of x y ... y would be searched deeper than the budget
    m = T("x" + " y" * 20)
    assert derives(bcd, {}, m, P("a"), SearchBudget(max_depth=16))[0] is Verdict.NO


def test_application_unknown_when_pool_exhausted(ba):
    tiny = SearchBudget(max_candidate_type_size=1, max_depth=8)
    v, _ = derives(ba, {"x": P("(a -> b) -> b"), "y": P("a -> b")}, T("x y"), P("b"), tiny)
    assert v in (Verdict.UNKNOWN, Verdict.YES)


def test_budget_monotonicity(ba):
    ctx = {"x": P("(a & b -> a) -> a"), "y": P("a & b -> a")}
    small = derives(ba, ctx, T("x y"), P("a"), SearchBudget(2, 8))[0]
    large = derives(ba, ctx, T("x y"), P("a"), SearchBudget(6, 32))[0]
    assert large is Verdict.YES
    assert small in (Verdict.YES, Verdict.UNKNOWN)


def test_budget_fields_and_bounds():
    assert SearchBudget() == SearchBudget(max_candidate_type_size=6, max_depth=64)
    assert SearchBudget(4, 16).max_depth == 16
    for sizes in ((0, 8), (4, 0)):
        with pytest.raises(ValueError):
            SearchBudget(*sizes)


def test_alpha_invariance(ba):
    a = derives(ba, {}, T(r"\x. \y. x"), P("a -> b -> a"))[0]
    b = derives(ba, {}, T(r"\u. \v. u"), P("a -> b -> a"))[0]
    assert a is b is Verdict.YES


def test_equation_atom_can_type_abstraction():
    spec = make_spec({"a", "b"}, BA_RULES, {"a": P("b -> b")})
    v, d = derives(spec, {}, T(r"\x. x"), P("a"))
    assert v is Verdict.YES
    assert check_derivation(spec, d)


def test_non_ba_spec_raises():
    spec = make_spec({"a"}, frozenset({Rule.ARROW_INTER}))
    with pytest.raises(UnsupportedTheory):
        derives(spec, {}, T("x"), P("a"))


def test_invalid_spec_raises_before_search():
    # cyclic equations; the variable x is outside the empty context, so the
    # search would answer NO without ever deciding a subtype
    spec = make_spec({"a", "b"}, BA_RULES, {"a": P("b -> a"), "b": P("a -> b")})
    with pytest.raises(UnsupportedTheory, match="CyclicEquations"):
        derives(spec, {}, T("x"), P("a"))
    with pytest.raises(UnsupportedTheory, match="CyclicEquations"):
        infer_types(spec, {}, T("x"), 3, {"a"})


def test_cached_alpha_variant_derivation_checks(ba):
    # \y. y and \z. z are alpha-variants; the YES must check for each binder
    ctx = {"x": P("b -> a")}
    v, d = derives(ba, ctx, T(r"(\z. z) ((\y. y) x)"), P("b -> a"), SearchBudget(4, 16))
    assert v is Verdict.YES
    assert check_derivation(ba, d)


def test_free_variable_named_like_a_renamed_binder_is_not_bound():
    # \x. _0 is no alpha-variant of \x. x, whatever scheme bound variables
    # are renamed by: _0 is free and has type b, so the second argument
    # cannot take a -> a
    ba3 = named_theory(NamedTheory.BA, 3)
    ctx = {"f": P("(a -> a) -> (a -> a) -> c"), "_0": P("b")}
    m = App(App(Var("f"), Lam("x", Var("x"))), Lam("x", Var("_0")))
    v, d = derives(ba3, ctx, m, P("c"))
    assert v is not Verdict.YES or check_derivation(ba3, d)
    assert v is Verdict.NO


@pytest.mark.parametrize("n", [600, 5000])
def test_long_variable_spine_refuted(ba, n):
    spine = Var("x")
    for _ in range(n):
        spine = App(spine, Var("x"))
    assert derives(ba, {"x": P("a")}, spine, P("a"))[0] is Verdict.NO


def test_long_spine_derivation_checks_and_prints(bcd):
    text = " ".join(["x"] * 5001)
    v, d = derives(bcd, {"x": P("omega -> omega")}, T(text), P("omega -> omega"))
    assert v is Verdict.YES
    assert check_derivation(bcd, d)
    data = derivation_to_json(d)
    assert data["term"] == text
    assert derivation_from_json(data) == d


def test_deep_spine_derivation_checks(ba):
    # x y ... y against a -> ... -> a -> a: one ArrowE per argument, so the
    # derivation is as deep as the spine is long
    n = 3000
    t, m = Atom("a"), Var("x")
    for _ in range(n):
        t, m = Arrow(Atom("a"), t), App(m, Var("y"))
    ctx = {"x": t, "y": Atom("a")}
    v, d = derives(ba, ctx, m, Atom("a"), SearchBudget(6, n + 8))
    assert v is Verdict.YES
    assert check_derivation(ba, d)
    # a wrong leaf under a chain of that depth is found at its full path
    bad = make_derivation("Ax", ctx, Var("y"), P("b"))
    for _ in range(n):
        bad = make_derivation("Leq", ctx, Var("y"), P("b"), (bad,))
    assert derivation_error(ba, bad) == (0,) * n


@pytest.mark.parametrize("redex_at", ["argument", "head"])
def test_deep_derivation_expanded_through_a_redex(ba, redex_at):
    # subject expansion rebuilds the contractum's derivation, as deep as the
    # spine is long: (\z. z) (x y ... y) retargets the argument's
    # derivation, and (\z. z) x y ... y walks the spine's ArrowE chain
    n = 3000
    t, spine, m = Atom("a"), Var("x"), App(Lam("z", Var("z")), Var("x"))
    for _ in range(n):
        t, spine, m = Arrow(Atom("a"), t), App(spine, Var("y")), App(m, Var("y"))
    if redex_at == "argument":
        m = App(Lam("z", Var("z")), spine)
    ctx = {"x": t, "y": Atom("a")}
    v, d = derives(ba, ctx, m, Atom("a"), SearchBudget(6, n + 8))
    assert v is Verdict.YES
    assert check_derivation(ba, d)


def test_context_order_shares_a_cache_entry(ba):
    # the same bindings made in another order key the same verdicts
    search = _Search(ba, SMALL)
    m, a = T(r"\z. x (y z)"), P("c -> b")
    v, d = search.run({"x": P("a -> b"), "y": P("c -> a")}, m, a)
    entries = len(search.cache)
    assert v is Verdict.YES and entries > 1
    v2, d2 = search.run({"y": P("c -> a"), "x": P("a -> b")}, m, a)
    assert v2 is Verdict.YES
    assert len(search.cache) == entries
    assert d2 == d
    assert check_derivation(ba, d2)


@pytest.mark.parametrize(
    "y, form",
    [
        # each y step keeps two arrow heads, so each argument is asked twice
        ("(a -> a) & (b -> b)", "y ({})"),
        # each dropped argument y R is synthesized, then searched
        ("a -> a", r"(\z. x) (y ({}))"),
    ],
)
def test_memo_keeps_nested_searches_linear(ba, monkeypatch, y, form):
    # a subsearch met twice at one depth is searched once: without the
    # memo either term takes about 2^k searches
    k = 12
    m = "x"
    for _ in range(k):
        m = form.format(m)
    calls = []
    uncached = _Search._derive_uncached

    def counted(self, *args):
        calls.append(args)
        return uncached(self, *args)

    monkeypatch.setattr(_Search, "_derive_uncached", counted)
    v, d = derives(ba, {"x": P("a"), "y": P(y)}, T(m), P("a"))
    assert v is Verdict.YES
    assert check_derivation(ba, d)
    assert len(calls) <= 4 * k + 4


def test_many_conjuncts_introduced_on_a_loop(ba):
    # \x. x against 300 distinct arrows t -> t takes one InterI per
    # conjunct; a lowered recursion limit keeps the input small
    ts, t = [], Atom("a")
    for _ in range(300):
        t = Arrow(Atom("b"), t)
        ts.append(Arrow(t, t))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        v, d = derives(ba, {}, T(r"\x. x"), inter_of(ts))
    finally:
        sys.setrecursionlimit(limit)
    assert v is Verdict.YES
    assert check_derivation(ba, d)


def test_search_results_check_out_on_random_corpus(bcd):
    for ctx, m, a, d in random_judgments(bcd, {"a", "b"}, seed=7, count=15):
        assert check_derivation(bcd, d)


# ---------------------------------------------------------------- spine inversion


@pytest.mark.parametrize(
    "ctx, term, ty",
    [
        ({"x": "a -> b", "y": "a"}, "x y", "c"),
        ({"x": "(a -> b) & (c -> a)", "y": "c"}, "x (x (x y))", "b"),
    ],
)
def test_variable_spine_refuted_exactly(ctx, term, ty):
    # the types of x N1 ... Nk are those of iterated filter application, so
    # the default budget settles both; the candidate pool never could
    ba3 = named_theory(NamedTheory.BA, 3)
    ctx = {x: P(t) for x, t in ctx.items()}
    assert derives(ba3, ctx, T(term), P(ty))[0] is Verdict.NO


def test_variable_spine_yes_without_pool(ba):
    tiny = SearchBudget(max_candidate_type_size=1, max_depth=8)
    ctx = {"x": P("(a -> b) -> b"), "y": P("a -> b")}
    v, d = derives(ba, ctx, T("x y"), P("b"), tiny)
    assert v is Verdict.YES
    assert check_derivation(ba, d)


def test_variable_spine_unsettled_argument_is_no_refutation(ba):
    # the argument Omega never settles, so its head is dropped; the spine
    # then proves nothing, and that is not a NO
    ctx = {"x": P("(a -> a) -> b"), "z": P("a -> a")}
    assert derives(ba, ctx, T(f"x ({OMEGA_TERM})"), P("b"))[0] is Verdict.UNKNOWN
    # a redex argument settles through its contractum, even under a tiny
    # candidate size
    m = T(r"x ((\y. y) z)")
    for budget in (SearchBudget(max_candidate_type_size=1, max_depth=8), SearchBudget()):
        v, d = derives(ba, ctx, m, P("b"), budget)
        assert v is Verdict.YES
        assert check_derivation(ba, d)


def test_variable_spine_through_equated_atom():
    spec = make_spec({"a", "b", "c"}, BA_RULES, {"c": P("a -> b -> a")})
    ctx = {"x": P("c"), "y": P("a"), "z": P("b")}
    v, d = derives(spec, ctx, T("x y z"), P("a"))
    assert v is Verdict.YES
    assert check_derivation(spec, d)
    assert derives(spec, ctx, T("x z y"), P("a"))[0] is Verdict.NO
    assert derives(spec, ctx, T("x y z"), P("b"))[0] is Verdict.NO


@pytest.mark.parametrize("name", ["ba", "ehr", "ao", "bcd"])
def test_spine_filter_law(all_theories, name):
    res = spine_filter_law(all_theories[name], {"a", "b"}, seed=3)
    assert res.ok, res.failures
    assert res.checked == 200


def test_spine_filter_law_with_equation():
    spec = make_spec({"a", "b", "c"}, BA_RULES, {"c": P("a -> b -> a")})
    res = spine_filter_law(spec, {"a", "b", "c"}, seed=5)
    assert res.ok, res.failures


def test_search_soundness_law_checks_no_verdicts(ba):
    res = search_soundness_law(ba, {"a", "b"}, seed=0)
    assert res.ok, res.failures
    # the Yes corpus plus every No met while drawing it
    assert res.checked > len(random_judgments(ba, {"a", "b"}, seed=0, count=25))


# ---------------------------------------------------------------- head redexes


def test_redex_refuted_by_its_contractum(ba):
    # (\x. x) y reduces to y, which has only the supertypes of a
    assert derives(ba, {"y": P("a")}, T(r"(\x. x) y"), P("b"))[0] is Verdict.NO


def test_redex_expanded_from_copies_of_its_argument(ba):
    # y is used at two types; the binder x gets their meet
    ctx = {"y": P("(a -> b) & a")}
    v, d = derives(ba, ctx, T(r"(\x. x x) y"), P("b"))
    assert v is Verdict.YES
    assert check_derivation(ba, d)
    assert d.rule == "ArrowE" and d.premises[0].type.dom == P("(a -> b) & a")


def test_redex_expansion_renames_a_capturing_binder(ba):
    ctx = {"y": P("b")}
    v, d = derives(ba, ctx, T(r"(\x. \y. x) y"), P("a -> b"))
    assert v is Verdict.YES
    assert check_derivation(ba, d)
    assert derives(ba, ctx, T(r"(\x. \y. x) y"), P("b -> a"))[0] is Verdict.NO


def test_redex_spine_expanded(bcd):
    ctx = {"z": P("a")}
    m = T(r"(\x. \y. y x) z (\w. w)")
    v, d = derives(bcd, ctx, m, P("a"))
    assert v is Verdict.YES
    assert check_derivation(bcd, d)


def _function_chain(d):
    rules = [d.rule]
    while d.premises:
        d = d.premises[0]
        rules.append(d.rule)
    return rules


PATH_CTX = {"x": P("a -> b & c"), "y": P("a")}


def test_redex_expanded_below_a_leq_step():
    ba3 = named_theory(NamedTheory.BA, 3)
    m = T(r"(\z. z) x y")
    v, d = derives(ba3, PATH_CTX, m, P("c"))
    assert v is Verdict.YES
    assert check_derivation(ba3, d)
    # the redex (\z. z) x is the function premise of an ArrowE under a Leq
    assert _function_chain(d) == ["Leq", "ArrowE", "ArrowE", "ArrowI", "Ax"]
    assert derives(ba3, PATH_CTX, m, P("a"))[0] is Verdict.NO


def test_redex_chain_expanded_along_its_spines():
    ba3 = named_theory(NamedTheory.BA, 3)
    ctx = {"v": P("a"), **PATH_CTX}
    v, d = derives(ba3, ctx, T(r"(\w. \z. z) v x y"), P("c"))
    assert v is Verdict.YES
    assert check_derivation(ba3, d)
    assert _function_chain(d) == [
        "Leq", "ArrowE", "ArrowE", "ArrowE", "ArrowI", "ArrowI", "Ax"
    ]
    # an unbound u, dropped by the outer redex, refutes the whole chain
    v, d = derives(ba3, PATH_CTX, T(r"(\w. \z. z) u x y"), P("c"))
    assert v is Verdict.NO and d is None


def test_dropped_argument_typed_by_synthesis(ba):
    # without omega the dropped argument still needs a type; its head
    # contraction reaches x, and x : a serves
    ctx = {"x": P("a"), "y": P("b")}
    v, d = derives(ba, ctx, T(r"(\z. y) ((\u. u) x)"), P("b"))
    assert v is Verdict.YES
    assert check_derivation(ba, d)
    assert d.premises[1].type == P("a")


@pytest.mark.parametrize(
    "ctx, term, ty, arg_type",
    [
        # an argument of a context variable's spine: y gets a & b
        ({"z": "b -> b"}, r"(\y. \y. y) (\y. z y)", "a -> a", "a & b -> b"),
        # uses of the binder: x z asks b -> a, y (y x) and y y ask a -> a
        ({"z": "b"}, r"(\z. \x. x) (\x. x z)", "b -> b", "a & (b -> a) -> a"),
        ({"x": "a"}, r"(\z. x) (\y. y (y x))", "a", "a & (a -> a) -> a"),
        ({"x": "a"}, r"(\z. x) (\y. y y)", "a", "a & (a -> a) -> a"),
    ],
)
def test_dropped_abstraction_typed_by_synthesis(ba, ctx, term, ty, arg_type):
    ctx = {x: P(t) for x, t in ctx.items()}
    v, d = derives(ba, ctx, T(term), P(ty), SearchBudget())
    assert v is Verdict.YES
    assert check_derivation(ba, d)
    assert d.premises[1].type == P(arg_type)


@pytest.mark.parametrize(
    "name, ctx, term, ty",
    [
        ("ba", {"y": "b", "z": "b -> b"}, r"(\z. \z. y) x", "a -> b"),
        ("ehr", {"y": "a -> nu", "z": "b -> a"}, r"(\y. \x. z) x", "nu"),
        ("ba", {"y": "b"}, r"(\z. y) ((\u. u) (w y))", "b"),
        ("ba", {"x": "a"}, r"(\z. x) (\y. w)", "a"),
        ("ba", {"x": "a"}, r"(\z. x) (\y. y w)", "a"),
        # under nu only an applied abstraction's body must be typed
        ("ehr", {"x": "a"}, r"(\z. x) ((\u. w) z)", "a"),
        ("ehr", {"x": "a"}, r"(\z. x) ((\u. \v. w) z x)", "a"),
        # the argument's head contraction reaches such a term
        ("ehr", {"x": "a"}, r"(\z. x) ((\f. f x) (\v. w))", "a"),
        # a variable spine that a step leaves with no head, every head
        # refuted: no arrow head of y takes y, or of b (after y x) takes y
        ("ba", {"y": "a -> a"}, r"(\z. y) (y y)", "a -> a"),
        ("ehr", {"y": "a -> a"}, r"(\z. y) (y y)", "a -> a"),
        ("ba", {"y": "a -> a"}, r"(\z. y) ((\u. u) (y y))", "a -> a"),
        ("ehr", {"x": "a", "y": "a -> b"}, r"(\z. x) (y x y)", "a"),
    ],
)
def test_untypable_dropped_argument_is_no(all_theories, name, ctx, term, ty):
    # a variable the context does not bind occurs free where every
    # derivation types it, in the dropped argument or in the term its head
    # contractions reach, or that term is a variable spine with no type:
    # without omega the argument has no type, and neither has the redex
    spec = all_theories[name]
    ctx = {x: P(t) for x, t in ctx.items()}
    assert derives(spec, ctx, T(term), P(ty))[0] is Verdict.NO


def test_dropped_spine_with_an_unsettled_step_stays_open(ba):
    # the search cannot settle whether y's argument, an Omega, has a, so
    # the step keeps no head but refutes none: UNKNOWN, as _invert_spine
    # answers
    ctx = {"x": P("a"), "y": P("a -> b")}
    omega = r"((\w. w w) (\w. w w))"
    m = T(rf"(\z. x) (y {omega} y)")
    assert derives(ba, ctx, m, P("a"), SearchBudget(max_depth=8))[0] is Verdict.UNKNOWN


def test_dropped_abstraction_with_unbound_body_has_nu(ehr):
    # AxNu types the abstraction without its body
    v, d = derives(ehr, {"x": P("a")}, T(r"(\z. x) (\y. w)"), P("a"))
    assert v is Verdict.YES
    assert check_derivation(ehr, d)
    assert d.premises[1].type == P("nu")


@pytest.mark.parametrize(
    "name, ctx, term, rule, arg_type",
    [
        # a dropped bound variable gets its context type by Ax
        ("ba", {"x": "a", "y": "b"}, r"(\z. x) y", "Ax", "b"),
        # a dropped abstraction gets nu by AxNu
        ("ehr", {"x": "a"}, r"(\z. x) (\y. y)", "AxNu", "nu"),
    ],
)
def test_dropped_argument_typed_by_an_axiom(all_theories, name, ctx, term, rule, arg_type):
    # the contractum x needs one level below the redex, and the dropped
    # argument is searched one level below the redex too
    spec = all_theories[name]
    ctx = {x: P(t) for x, t in ctx.items()}
    assert derives(spec, ctx, T(term), P("a"), SearchBudget(max_depth=1))[0] is Verdict.UNKNOWN
    for budget in (SearchBudget(max_depth=2), SearchBudget()):
        v, d = derives(spec, ctx, T(term), P("a"), budget)
        assert v is Verdict.YES
        assert check_derivation(spec, d)
        assert (d.premises[1].rule, d.premises[1].type) == (rule, P(arg_type))


@pytest.mark.parametrize(
    "ctx, term, ty",
    [
        # the abstraction's body runs out of depth
        ({}, rf"\y. {OMEGA_TERM}", "a -> a"),
        # the contractum (\w. w) y is typed, but the head redex drops an
        # argument that runs out of depth, so the spine has no premise
        ({"y": "a"}, rf"(\z. \w. w) ({OMEGA_TERM}) y", "a"),
    ],
)
def test_unknown_below_an_abstraction_or_a_spine(ba, ctx, term, ty):
    ctx = {x: P(t) for x, t in ctx.items()}
    assert derives(ba, ctx, T(term), P(ty)) == (Verdict.UNKNOWN, None)


def test_dropped_argument_walked_once(monkeypatch):
    # _dropped_argument checks the argument y (y x) for a free variable the
    # context cannot type; the synthesis checks only a term a head
    # contraction reached, and y (y x) has no head redex
    calls = []
    walk = itypes.assign._free_where_typed

    def counted(spec, ctx, n):
        calls.append(n)
        return walk(spec, ctx, n)

    monkeypatch.setattr(itypes.assign, "_free_where_typed", counted)
    spec = named_theory(NamedTheory.BA, 2)
    ctx = {"x": P("a"), "y": P("a -> a")}
    v, d = derives(spec, ctx, T(r"(\z. x) (y (y x))"), P("a"))
    assert v is Verdict.YES and check_derivation(spec, d)
    assert calls == [T("y (y x)")]


@pytest.mark.parametrize(
    "name, arg",
    [("ba", "y"), ("ehr", r"(\u. u)")],
)
def test_dropped_argument_typed_with_no_depth_left(all_theories, name, arg):
    # the spine g R is synthesized for the outer redex's dropped argument
    # and searched one level down, and R = (\w. x) arg one level further:
    # R alone needs depth 2, one level for its contractum x and one for
    # arg, which R drops, so the redex needs depth 4; x : a, settled
    # earlier in the same search, does not lend R a verdict at depth 3
    rule = {"ba": "Ax", "ehr": "AxNu"}[name]
    spec = all_theories[name]
    ctx = {"f": P("a -> b"), "g": P("a -> b"), "x": P("a"), "y": P("b")}
    m = T(rf"(\z. f x) (g ((\w. x) {arg}))")
    assert derives(spec, ctx, m, P("b"), SearchBudget(max_depth=3))[0] is Verdict.UNKNOWN
    v, d = derives(spec, ctx, m, P("b"), SearchBudget(max_depth=4))
    assert v is Verdict.YES
    assert check_derivation(spec, d)
    # the outer redex's argument g R, its argument R, and R's argument arg
    dropped = d.premises[1].premises[1].premises[1]
    assert (dropped.term, dropped.rule) == (T(arg), rule)


def test_candidate_size_is_inert(ba, ehr):
    # verdicts and derivations do not depend on max_candidate_type_size
    import random

    rng = random.Random(5)
    for spec in (ba, ehr):
        for _ in range(150):
            m = App(Lam("z", _random_term(rng, rng.randrange(3))), _random_term(rng, 2))
            ctx = {x: rng.choice([P("a"), P("b -> a"), P("a -> a")]) for x in "xy"}
            a = rng.choice([P("a"), P("b"), P("a -> a")])
            small = derives(spec, ctx, m, a, SearchBudget(1, 16))
            large = derives(spec, ctx, m, a, SearchBudget(6, 16))
            assert small == large


@pytest.mark.parametrize("name", ["ba", "ehr", "ao", "bcd"])
@pytest.mark.parametrize("term", [r"(\x. x x x) (\x. x x x)", OMEGA_TERM])
def test_non_normalising_redex_stays_unknown(all_theories, name, term):
    spec = all_theories[name]
    assert derives(spec, {}, T(term), P("a -> a"))[0] is Verdict.UNKNOWN


@pytest.mark.parametrize("name", ["ba", "ehr", "ao", "bcd"])
def test_subject_reduction_law(all_theories, name):
    res = subject_reduction_law(all_theories[name], {"a", "b"}, seed=2)
    assert res.ok, res.failures
    assert res.checked == 60


@pytest.mark.parametrize(
    "spec",
    [
        make_spec({"a", "b", "c"}, BA_RULES, {"c": P("a -> b -> a")}),
        make_spec({"a", "b", "omega"}, BA_RULES | {Rule.OMEGA_TOP}, {"a": P("b -> b")}),
    ],
)
def test_subject_reduction_law_with_equation(spec):
    res = subject_reduction_law(spec, {"a", "b"}, seed=6)
    assert res.ok, res.failures


# ---------------------------------------------------------------- atoms


def test_search_rejects_atoms_outside_the_theory(ba):
    with pytest.raises(UnknownAtomError, match="'z'"):
        derives(ba, {"x": P("z")}, T("x"), P("z"))
    with pytest.raises(UnknownAtomError):
        derives(ba, {"x": P("a")}, T("x"), P("a -> c"))
    with pytest.raises(UnknownAtomError):
        infer_types(ba, {"x": P("a & z")}, T("x"), 3, {"a"})
    assert derives(ba, {"x": P("a")}, T("x"), P("a"))[0] is Verdict.YES


def test_atom_check_table_is_cleared_at_cap(monkeypatch):
    import itypes.assign as assign

    monkeypatch.setattr(assign, "TABLE_CAP", 2)
    spec = named_theory(NamedTheory.BA, 2)  # a new spec has new tables
    for t in ("a", "b", "a -> b", "b -> a", "a & b"):
        assert derives(spec, {"x": P(t)}, T("x"), P(t))[0] is Verdict.YES
    assert 0 < len(spec.tables.in_theory) <= 2
    with pytest.raises(UnknownAtomError):
        derives(spec, {"x": P("a")}, T("x"), P("c"))


# ---------------------------------------------------------------- inference


def test_infer_identity_types(ba):
    found = infer_types(ba, {}, T(r"\x. x"), 3, {"a"})
    assert P("a -> a") in found


def test_infer_rejects_size_below_one(ba):
    for size in (0, -2):
        with pytest.raises(ValueError):
            infer_types(ba, {}, T(r"\x. x"), size, {"a"})


def test_infer_unsolvable_only_omega(ao):
    found = infer_types(ao, {}, T(OMEGA_TERM), 1, set(), SMALL)
    assert found == {P("omega")}


def test_infer_self_application(bcd):
    from itypes.subtype import canonical

    found = infer_types(bcd, {}, T(DELTA), 7, {"a", "b"}, SearchBudget(3, 24))
    # result holds canonical representatives only
    assert canonical(bcd, P("(a -> b) & a -> b")) in found


# ---------------------------------------------------------------- admissible rules


def test_admissible_rules_on_golden_corpus(ba, ao, ehr):
    corpus = [
        ({}, T(DELTA), P("(a -> b) & a -> b")),
        ({"x": P("a")}, T("x"), P("a")),
        ({}, T(r"\x. x"), P("(a -> a) & (b -> b)")),
    ]
    report = admissible_rule_suite(ba, corpus)
    assert report.ok, report.failures
    assert report.checked > len(corpus)


def test_admissible_rules_with_omega(ao):
    corpus = [({}, T(rf"(\y. \x. x) ({OMEGA_TERM})"), P("a -> a"))]
    report = admissible_rule_suite(ao, corpus)
    assert report.ok, report.failures


# ---------------------------------------------------------------- Hindley rule


HINDLEY_SPEC = make_spec(
    {"omega", "a", "b"},
    BA_RULES | {Rule.OMEGA_TOP, Rule.OMEGA_ETA},
    {"a": P("(b -> b) -> (b -> b)")},
)


def test_hindley_admissible_with_equation():
    res = hindley_rule_check(HINDLEY_SPEC, "a", 1)
    assert (res.name, res.checked, res.ok) == ("hindley-rule", 1, True)
    assert itypes.hindley_rule_check is hindley_rule_check


def test_hindley_binders_avoid_free_variables():
    # the expansion of x1 must not be \x1. \x2. x1 x1 x2
    premise = P("a & (omega -> omega)")
    for x in ("x", "x1", "x2"):
        res = hindley_rule_check(HINDLEY_SPEC, "a", 2, corpus=[({x: premise}, Var(x))])
        assert (res.checked, res.failures) == (1, []), x


def test_hindley_counterexample_for_fresh_atom(bcd):
    res = hindley_rule_check(bcd, "a", 1)
    assert (res.checked, res.failures) == (1, [("x", r"\x1. x x1")])
    # a premise NO holds vacuously
    res = hindley_rule_check(bcd, "a", 1, corpus=[({"x": P("b")}, Var("x"))])
    assert (res.checked, res.ok) == (1, True)


def test_hindley_requires_omega(ba):
    with pytest.raises(UnsupportedTheory):
        hindley_rule_check(ba, "a", 1)


# ---------------------------------------------------------------- serialization


def test_derivation_json_roundtrip(ba):
    _, d = derives(ba, {}, T(DELTA), P("(a -> b) & a -> b"))
    data = derivation_to_json(d)
    back = derivation_from_json(data)
    assert back == d
    assert check_derivation(ba, back)


def test_deep_derivation_json_roundtrip(ba):
    # 3,000 Leq steps over one Ax leaf, rebuilt from JSON on an explicit stack
    n = 3000
    ctx = {"x": P("a")}
    d = make_derivation("Ax", ctx, Var("x"), P("a"))
    for _ in range(n):
        d = make_derivation("Leq", ctx, Var("x"), P("a"), (d,))
    back = derivation_from_json(derivation_to_json(d))
    assert check_derivation(ba, back)
    # compared level by level: == on the tuples would recurse
    for _ in range(n + 1):
        assert back[:4] == d[:4]
        assert len(back.premises) == len(d.premises)
        if d.premises:
            (back,), (d,) = back.premises, d.premises


def test_derivation_json_has_documented_shape(ba):
    _, d = derives(ba, {"x": P("a & b")}, T("x"), P("a"))
    data = derivation_to_json(d)
    assert set(data) <= {"rule", "ctx", "term", "type", "premises", "leq"}
    assert data["term"] == "x"


def test_derivation_json_leq_entry_matches_its_node(ba):
    # the entry reads [the premise's type, the node's type]; one that does
    # not, or is missing from a Leq node or added to another, is an error
    _, d = derives(ba, {"x": P("a & b")}, T("x"), P("a"))
    data = derivation_to_json(d)
    assert (data["rule"], data["leq"]) == ("Leq", ["a & b", "a"])
    (premise,) = data["premises"]
    bad = [
        {**data, "leq": ["a & b", "b"]},
        {**data, "leq": ["a", "a"]},
        {k: v for k, v in data.items() if k != "leq"},
        {**data, "premises": [{**premise, "leq": ["a & b", "a & b"]}]},
    ]
    for wrong in bad:
        with pytest.raises(ValueError):
            derivation_from_json(wrong)


# ---------------------------------------------------------------- the context tuple


def test_bind_in_any_order_gives_the_sorted_tuple():
    # names that prefix one another sort by the name alone
    names = ["x", "x1", "x10", "x2", "y"]
    basis = {x: Atom("ab"[i % 2]) for i, x in enumerate(names)}
    for order in itertools.permutations(basis):
        ctx = ()
        for x in order:
            ctx = _bind(ctx, x, basis[x])
        assert ctx == _ctx_tuple(basis)


def test_bind_replaces_a_bound_name():
    ctx = _ctx_tuple({"x": P("a"), "y": P("b")})
    assert _bind(ctx, "x", P("b -> a")) == _ctx_tuple({"x": P("b -> a"), "y": P("b")})
    assert _lookup(_bind(ctx, "y", P("a")), "y") is P("a")


def test_lookup_of_an_absent_name_is_none():
    ctx = _ctx_tuple({"x": P("a"), "x2": P("b")})
    assert _lookup(ctx, "x2") is P("b")
    for x in ["a", "x1", "x10", "y", ""]:
        assert _lookup(ctx, x) is None
    assert _lookup((), "x") is None


@pytest.mark.parametrize(
    "ctx",
    [
        (("x", Atom("a")), ("z", Atom("b")), ("y", Atom("b"))),  # out of order
        (("x", Atom("a")), ("x", Atom("b"))),  # x bound twice
    ],
)
def test_check_rejects_a_root_context_not_sorted_by_name(ba, ctx):
    # bisection finds x : a in either, so only the order check rejects them
    assert _lookup(ctx, "x") is Atom("a")
    d = Derivation("Ax", ctx, Var("x"), Atom("a"))
    assert not check_derivation(ba, d)
    assert derivation_error(ba, d) == ()
    d = make_derivation("Ax", {"z": Atom("b"), "x": Atom("a")}, Var("x"), Atom("a"))
    assert check_derivation(ba, d)


def _redex_chain(n):
    # (\x1. ... \xn. z) y ... y, built with the constructors
    m = Var("z")
    for i in range(n, 0, -1):
        m = Lam(f"x{i}", m)
    for _ in range(n):
        m = App(m, Var("y"))
    return m


def test_redex_chain_is_derived(ba):
    n = 150
    ctx = {"z": Atom("a"), "y": Atom("b")}
    v, d = derives(ba, ctx, _redex_chain(n), Atom("a"), SearchBudget(6, n + 8))
    assert v is Verdict.YES
    assert check_derivation(ba, d)


@pytest.mark.parametrize("name", ["ba", "ehr", "ao", "bcd"])
def test_doubled_type_in_the_context_and_the_target(all_theories, name):
    spec = all_theories[name]
    a = t = Atom("a")
    for _ in range(60):
        t = Inter(t, t)
    # a failed assertion on d would print the doubled type in full
    for ctx, target in [({"x": t}, a), ({"x": a}, t)]:
        v, d = derives(spec, ctx, Var("x"), target)
        error = derivation_error(spec, d) if d else "no derivation"
        assert (v, error) == (Verdict.YES, None)
