import pytest

from itypes.assign import Verdict
from itypes.classify import (
    adequacy_report,
    fun_predicate,
    is_f_type_theory,
    is_natural,
    is_strict,
)
from itypes.errors import UnsupportedTheory
from itypes.laws import run_all
from itypes.search_laws import fun_alternative_check, fun_phi_law
from itypes.subtype import canonical_types
from itypes.syntax import Atom, Inter, parse_type as P
from itypes.theory import BA_RULES, NamedTheory, Rule, make_spec, named_theory

EHR0 = named_theory(NamedTheory.EHR)
AO0 = named_theory(NamedTheory.AO)


# ---------------------------------------------------------------- strict / natural


def test_strictness_table(all_theories):
    assert is_strict(all_theories["ba"])
    assert is_strict(all_theories["ehr"])
    assert not is_strict(all_theories["ao"])
    assert not is_strict(all_theories["bcd"])


def test_naturality_table(all_theories):
    assert not is_natural(all_theories["ba"])
    assert not is_natural(all_theories["ehr"])
    assert is_natural(all_theories["ao"])
    assert is_natural(all_theories["bcd"])


def test_invalid_spec_rejected():
    bad = make_spec({"omega"}, BA_RULES)  # omega without its axiom
    with pytest.raises(UnsupportedTheory):
        is_strict(bad)


# ---------------------------------------------------------------- fun predicate


def test_fun_arrows_always_functional(ba):
    assert fun_predicate(ba, P("a -> b")) is Verdict.YES


def test_fun_intersection_is_disjunction(ba):
    assert fun_predicate(ba, P("(a -> b) & c")) is Verdict.YES
    assert fun_predicate(ba, P("a & b")) is Verdict.NO


@pytest.mark.parametrize("nest", ["left", "right"])
def test_fun_deep_intersection(bcd, nest):
    # one stack frame per & level would pass the interpreter's recursion limit
    for t, want in ((P("b"), Verdict.NO), (P("a -> b"), Verdict.YES)):
        for _ in range(5000):
            t = Inter(t, Atom("a")) if nest == "left" else Inter(Atom("a"), t)
        assert fun_predicate(bcd, t) is want


def test_fun_on_distinguished_atoms(ehr, bcd, ao):
    assert fun_predicate(ehr, P("nu")) is Verdict.YES
    assert fun_predicate(bcd, P("omega")) is Verdict.YES
    assert fun_predicate(ao, P("omega")) is Verdict.NO


def test_fun_plain_atom_is_no(bcd):
    assert fun_predicate(bcd, P("a")) is Verdict.NO


def test_fun_equation_atom_is_yes():
    spec = make_spec({"a", "b"}, BA_RULES, {"a": P("b -> b")})
    assert fun_predicate(spec, P("a")) is Verdict.YES


# ---------------------------------------------------------------- F-type theories


def test_f_type_table_matches_named_theories(ba):
    assert is_f_type_theory(ba) is Verdict.YES
    assert is_f_type_theory(EHR0) is Verdict.YES
    assert is_f_type_theory(AO0) is Verdict.YES
    assert is_f_type_theory(named_theory(NamedTheory.BCD, 2)) is Verdict.NO


def test_bcd_with_all_atoms_equated_is_f_type():
    spec = make_spec(
        {"omega", "a"},
        BA_RULES | {Rule.OMEGA_TOP, Rule.OMEGA_ETA},
        {"a": P("omega -> omega")},
    )
    assert is_f_type_theory(spec) is Verdict.YES


def test_ehr_with_fresh_atoms_fails_clause_two():
    spec = named_theory(NamedTheory.EHR, 2)
    assert is_f_type_theory(spec) is Verdict.NO


@pytest.mark.parametrize(
    "atoms, rules, equations, want",
    [
        # strict with nu: nu lies below no plain atom, so each needs an equation
        ({"nu", "a", "b"}, {Rule.NU_TOP}, {"a": "b -> b", "b": "nu -> nu"}, Verdict.YES),
        ({"nu", "a", "b"}, {Rule.NU_TOP}, {"a": "b -> b"}, Verdict.NO),
        # an unequated plain atom is not decided beside an equation in a
        # strict theory without nu, nor at all in a lazy one
        ({"a", "b"}, set(), {"a": "b -> b"}, Verdict.UNKNOWN),
        ({"omega", "a"}, {Rule.OMEGA_TOP, Rule.OMEGA_LAZY}, {}, Verdict.UNKNOWN),
        # the lazy theory over omega alone
        ({"omega"}, {Rule.OMEGA_TOP, Rule.OMEGA_LAZY}, {}, Verdict.YES),
    ],
)
def test_f_type_of_spec_shapes(atoms, rules, equations, want):
    eqs = {k: P(v) for k, v in equations.items()}
    spec = make_spec(atoms, BA_RULES | rules, eqs)
    assert is_f_type_theory(spec) is want


def test_non_adequate_spec_is_not_f_type():
    spec = make_spec({"a"}, frozenset({Rule.ARROW_INTER}))
    assert is_f_type_theory(spec) is Verdict.NO


# ---------------------------------------------------------------- alternative characterization


EQN_BCD = make_spec(
    {"omega", "a"},
    BA_RULES | {Rule.OMEGA_TOP, Rule.OMEGA_ETA},
    {"a": P("omega -> omega")},
)


@pytest.mark.parametrize("theory", ["ehr0", "ao0", "eqn-bcd"])
def test_fun_alternative_agrees(theory):
    # restricted to theories whose atoms all decompose into arrows; plain
    # fresh atoms under an intersection have no arrow decomposition, so the
    # equivalence is not testable there
    spec = {"ehr0": EHR0, "ao0": AO0, "eqn-bcd": EQN_BCD}[theory]
    corpus = canonical_types(spec, spec.atoms, 5)
    report = fun_alternative_check(spec, corpus)
    assert report.ok, report.failures
    assert report.checked == len(corpus)


def test_fun_implies_phi(ehr):
    report = fun_phi_law(ehr, ehr.atoms, 4)
    assert report.ok, report.failures
    assert report.checked > 0


# omega a top type, neither omega-eta nor omega-lazy: a -> a is functional
# there, and its filter is not in the functionality set
OMEGA_TOP_ONLY = make_spec({"omega", "a"}, BA_RULES | {Rule.OMEGA_TOP})


def test_fun_implies_phi_skipped_where_neither_strict_nor_natural():
    assert not is_strict(OMEGA_TOP_ONLY) and not is_natural(OMEGA_TOP_ONLY)
    report = fun_phi_law(OMEGA_TOP_ONLY, {"a"}, 3)
    assert report.skipped == "neither strict nor natural"
    assert report.ok and report.checked == 0
    assert report.to_json()["skipped"] == "neither strict nor natural"
    assert "skipped" not in fun_phi_law(EHR0, EHR0.atoms, 3).to_json()


def test_report_notes_neither_strict_nor_natural():
    notes = adequacy_report(OMEGA_TOP_ONLY).notes
    assert "neither strict nor natural: no adequacy guarantees apply" in notes


def test_run_all_rejects_size_below_one(ba):
    for size in (0, -1):
        with pytest.raises(ValueError):
            run_all(ba, {"a", "b"}, size, 0)


@pytest.mark.parametrize("name", ["ba", "ao"])
def test_run_all_with_an_atom_equation(name):
    # the traces of this universe fold and unfold a = b -> b
    base = named_theory(NamedTheory(name), 2)
    spec = make_spec(base.atoms, base.rules, {"a": P("b -> b")})
    results = run_all(spec, {"a", "b"}, 3, 0)
    assert [r.name for r in results if not r.ok] == []
    trace = next(r for r in results if r.name == "trace-soundness")
    assert trace.checked > 0


# ---------------------------------------------------------------- adequacy report


def test_adequacy_table_reproduced(ba, bcd):
    rows = {
        "ba": (True, False, True, True, Verdict.YES),
        "ehr": (True, False, True, False, Verdict.YES),
        "ao": (False, True, True, False, Verdict.YES),
        "bcd": (False, True, True, True, Verdict.NO),
    }
    specs = {"ba": ba, "ehr": EHR0, "ao": AO0, "bcd": bcd}
    for name, (strict, natural, inf, simple, f) in rows.items():
        r = adequacy_report(specs[name])
        assert (r.strict, r.natural) == (strict, natural), name
        assert r.inference_adequate == inf, name
        assert r.simple_adequate == simple, name
        assert r.f_type_theory is f, name
        assert r.f_adequate is r.f_type_theory


def test_report_invariants_hold(all_theories):
    for spec in all_theories.values():
        r = adequacy_report(spec)
        assert r.inference_adequate == (r.strict or r.natural)
        expected_simple = (r.strict and not spec.has_nu) or (
            r.natural and Rule.OMEGA_ETA in spec.rules
        )
        assert r.simple_adequate == expected_simple


def test_report_serializes_with_notes(bcd):
    data = adequacy_report(bcd).to_json()
    assert set(data) == {
        "strict",
        "natural",
        "inference_adequate",
        "simple_adequate",
        "f_type_theory",
        "f_adequate",
        "notes",
    }
    assert data["f_type_theory"] == "no"
    assert data["notes"]
