import json
import pickle

import pytest

from itypes.assign import Verdict, check_derivation, derives
from itypes.classify import adequacy_report
from itypes.errors import ItypesError
from itypes.syntax import NU, OMEGA, Arrow, Atom, parse_term, parse_type
from itypes.theory import (
    BA_RULES,
    NamedTheory,
    Rule,
    TheorySpec,
    Violation,
    load_spec,
    make_spec,
    named_theory,
    spec_from_json,
    spec_to_json,
    validate,
    validates_ba,
)


def test_named_theories_have_expected_constants(all_theories):
    assert not all_theories["ba"].has_omega and not all_theories["ba"].has_nu
    assert all_theories["ehr"].has_nu and not all_theories["ehr"].has_omega
    assert all_theories["ao"].has_omega and not all_theories["ao"].has_nu
    assert all_theories["bcd"].has_omega and not all_theories["bcd"].has_nu


def test_constants_are_worked_out_with_the_spec(all_theories):
    ao, bcd, ehr = all_theories["ao"], all_theories["bcd"], all_theories["ehr"]
    omega = Atom(OMEGA)
    assert bcd.omega is omega and bcd.nu is None
    assert bcd.omega_arrow is Arrow(omega, omega)
    assert bcd.omega_eta and not bcd.omega_lazy
    assert ao.omega_lazy and not ao.omega_eta
    assert ehr.nu is Atom(NU) and ehr.omega is None and ehr.omega_arrow is None
    assert bcd.plain_atoms == ehr.plain_atoms == ("a", "b")
    assert bcd.universe_atoms({"c"}) == {"c", OMEGA}
    assert ehr.universe_atoms(()) == {NU}
    spec = make_spec({"b", "a"}, BA_RULES, {"a": parse_type("b -> b")})
    assert spec.equations == {"a": parse_type("b -> b")}
    copied = pickle.loads(pickle.dumps(spec))
    assert copied == spec and copied.equations == spec.equations
    assert copied.plain_atoms == ("a", "b")


def test_named_theories_have_expected_rules(all_theories):
    for spec in all_theories.values():
        assert BA_RULES <= spec.rules
    assert Rule.NU_TOP in all_theories["ehr"].rules
    assert Rule.OMEGA_LAZY in all_theories["ao"].rules
    assert Rule.OMEGA_ETA in all_theories["bcd"].rules
    assert Rule.OMEGA_ETA not in all_theories["ao"].rules


def test_named_theories_validate(all_theories):
    for spec in all_theories.values():
        assert validate(spec) == []
        assert validates_ba(spec)


def test_extra_atoms_are_letters():
    spec = named_theory(NamedTheory.BCD, 3)
    assert {"a", "b", "c"} <= spec.atoms


@pytest.mark.parametrize("n", [-1, 27])
def test_extra_atoms_out_of_range(n):
    with pytest.raises(ValueError, match="0 to 26"):
        named_theory(NamedTheory.BCD, n)
    assert named_theory(NamedTheory.BCD, 26).atoms >= {"a", "z"}


def test_omega_nu_conflict():
    spec = make_spec({OMEGA, NU}, BA_RULES | {Rule.OMEGA_TOP, Rule.NU_TOP})
    assert Violation.OMEGA_NU_CONFLICT in validate(spec)


def test_constant_requires_its_axiom():
    assert Violation.MISSING_ASSUMPTION_1 in validate(make_spec({OMEGA}, BA_RULES))
    assert Violation.MISSING_ASSUMPTION_2 in validate(make_spec({NU}, BA_RULES))


def test_rule_requires_its_constant():
    spec = make_spec({"a"}, BA_RULES | {Rule.OMEGA_ETA})
    assert Violation.OMEGA_RULE_WITHOUT_OMEGA in validate(spec)
    spec = make_spec({"a"}, BA_RULES | {Rule.NU_TOP})
    assert Violation.NU_RULE_WITHOUT_NU in validate(spec)


def test_equation_rhs_must_be_arrows_over_known_atoms():
    bad = make_spec({"a", "b"}, BA_RULES, {"a": parse_type("b")})
    assert Violation.BAD_EQUATION_RHS in validate(bad)
    bad = make_spec({"a"}, BA_RULES, {"a": parse_type("b -> b")})
    assert Violation.BAD_EQUATION_RHS in validate(bad)
    ok = make_spec({"a", "b"}, BA_RULES, {"a": parse_type("(b -> b) & (b -> b -> b)")})
    assert validate(ok) == []


@pytest.mark.parametrize(
    "atoms, equations, want",
    [
        ({"1a"}, {}, Violation.BAD_ATOM_NAME),
        ({"a"}, {"b": "a -> a"}, Violation.BAD_EQUATION_KEY),
        ({"a"}, {"a": "a -> a"}, Violation.CYCLIC_EQUATIONS),
    ],
)
def test_single_violation(atoms, equations, want):
    eqs = {k: parse_type(v) for k, v in equations.items()}
    assert validate(make_spec(atoms, BA_RULES, eqs)) == [want]


def test_cyclic_equations_rejected():
    spec = make_spec(
        {"a", "b"},
        BA_RULES,
        {"a": parse_type("b -> b"), "b": parse_type("a -> a")},
    )
    assert Violation.CYCLIC_EQUATIONS in validate(spec)


def test_acyclic_equation_chain_accepted():
    spec = make_spec(
        {"a", "b", "c"},
        BA_RULES,
        {"a": parse_type("b -> b"), "b": parse_type("c -> c")},
    )
    assert validate(spec) == []


def chain_spec(n: int, closed: bool = False):
    """Atoms a0 ... a{n-1}, each but the last equated to an arrow over the
    next; closed, the last is equated to an arrow over a0 too."""
    atoms = [f"a{i}" for i in range(n)]
    eqs = {a: Arrow(Atom(b), Atom(b)) for a, b in zip(atoms, atoms[1:])}
    if closed:
        eqs[atoms[-1]] = Arrow(Atom(atoms[0]), Atom(atoms[0]))
    return make_spec(atoms, BA_RULES, eqs)


def test_long_equation_chain_validates():
    # one equation per stack frame would pass the interpreter's recursion limit
    assert validate(chain_spec(1500)) == []
    assert validate(chain_spec(1500, closed=True)) == [Violation.CYCLIC_EQUATIONS]


def test_validation_runs_once_per_spec(monkeypatch):
    from itypes import theory

    calls = []
    violations = theory._violations
    monkeypatch.setattr(
        theory, "_violations", lambda spec: calls.append(spec) or violations(spec)
    )
    spec = make_spec({"a", "b"}, BA_RULES, {"a": parse_type("b -> b")})
    assert validate(spec) == validate(spec) == []
    assert adequacy_report(spec).strict
    v, d = derives(spec, {"x": parse_type("a")}, parse_term("x"), parse_type("b -> b"))
    assert v is Verdict.YES
    assert all(check_derivation(spec, d) for _ in range(10))
    assert calls == [spec]


def test_json_roundtrip(all_theories, tmp_path):
    for name, spec in all_theories.items():
        data = spec_to_json(spec)
        assert spec_from_json(data) == spec
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert load_spec(path) == spec


def test_json_of_named_theories(all_theories):
    names = ("ba", "ehr", "ao", "bcd")
    lines = [json.dumps(spec_to_json(all_theories[n])) for n in names]
    assert lines == [
        '{"name": "ba", "atoms": ["a", "b"], "omega": false, "nu": false, '
        '"rules": ["arrow-inter", "eta"], "equations": {}}',
        '{"name": "ehr", "atoms": ["a", "b"], "omega": false, "nu": true, '
        '"rules": ["arrow-inter", "eta", "nu-top"], "equations": {}}',
        '{"name": "ao", "atoms": ["a", "b"], "omega": true, "nu": false, '
        '"rules": ["arrow-inter", "eta", "omega-lazy", "omega-top"], "equations": {}}',
        '{"name": "bcd", "atoms": ["a", "b"], "omega": true, "nu": false, '
        '"rules": ["arrow-inter", "eta", "omega-eta", "omega-top"], "equations": {}}',
    ]


def test_rules_equal_the_names_that_proofs_carry(all_theories):
    assert Rule.ETA == "eta" and Rule.OMEGA_LAZY == "omega-lazy"
    assert all(r == r.value for r in Rule)
    assert "eta" in all_theories["ba"].rules
    assert "omega-eta" in all_theories["bcd"].rules
    assert "omega-eta" not in all_theories["ao"].rules
    spec = make_spec({"a"}, BA_RULES, name="s")
    assert json.dumps(spec_to_json(spec)) == (
        '{"name": "s", "atoms": ["a"], "omega": false, "nu": false, '
        '"rules": ["arrow-inter", "eta"], "equations": {}}'
    )


@pytest.mark.parametrize(
    "data, field",
    [
        ({"atoms": "ab", "rules": ["arrow-inter", "eta"]}, "'atoms'"),
        ({"atoms": ["a", 1], "rules": ["arrow-inter", "eta"]}, "'atoms'"),
        ({"atoms": ["a"], "rules": "eta"}, "'rules'"),
        ({"atoms": ["a"], "rules": ["arrow-inter", "eta"], "omega": "no"}, "'omega'"),
        ({"atoms": ["a"], "rules": ["arrow-inter", "eta"], "nu": 1}, "'nu'"),
        ({"atoms": ["a"], "rules": ["arrow-inter", "eta"], "equations": []}, "'equations'"),
        ({"atoms": ["a"], "rules": ["arrow-inter", "eta"], "equations": {"a": 1}},
         "'equations'"),
        ({"atoms": ["a"], "rules": ["arrow-inter", "eta"], "name": 3}, "'name'"),
        (["a", "b"], "a JSON object"),
        ("ba", "a JSON object"),
    ],
)
def test_json_of_the_wrong_shape_is_refused(data, field):
    with pytest.raises(ItypesError, match=field):
        spec_from_json(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"atoms": ["a", "b"], "rules": ["arrow-inter", "eta"],
          "equation": {"a": "b -> b"}},
         "theory spec has an unknown field 'equation'"),
        ({"atoms": ["a"], "rules": ["arrow-inter", "eta"], "omega_top": True},
         "theory spec has an unknown field 'omega_top'"),
        ({"atoms": ["a"], "rules": ["arrow-inter", "eta", "omega_top"]},
         "theory spec field 'rules' names an unknown rule 'omega_top'"),
    ],
)
def test_json_unknown_field_or_rule_is_refused(data, message):
    with pytest.raises(ItypesError) as info:
        spec_from_json(data)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "data, special",
    [
        ({"atoms": ["a", "omega"], "omega": False,
          "rules": ["arrow-inter", "eta", "omega-top"]}, "omega"),
        ({"atoms": ["nu"], "nu": True, "rules": ["arrow-inter", "eta", "nu-top"]}, "nu"),
    ],
)
def test_json_special_atom_in_atoms_is_refused(data, special):
    # omega and nu come only from their boolean fields, which spec_to_json
    # writes, so a file cannot say both that it has omega and that it has not
    with pytest.raises(ItypesError) as info:
        spec_from_json(data)
    assert str(info.value) == (
        f"theory spec field 'atoms' lists {special!r}, "
        f"which only the field {special!r} may give"
    )


def test_json_fields_may_be_left_out():
    assert spec_from_json({}) == make_spec(set(), frozenset())
    data = {"atoms": ["a"], "rules": ["arrow-inter", "eta"], "name": None}
    assert spec_from_json(data) == make_spec({"a"}, BA_RULES)


def test_json_roundtrip_with_equations():
    spec = make_spec(
        {"a", "b", OMEGA},
        BA_RULES | {Rule.OMEGA_TOP, Rule.OMEGA_ETA},
        {"a": parse_type("b -> b")},
        name="custom",
    )
    assert spec_from_json(spec_to_json(spec)) == spec


def test_rules_given_by_name_make_members():
    spec = make_spec({"a"}, {"arrow-inter", "eta"}, name="s")
    assert spec == make_spec({"a"}, BA_RULES)
    assert all(type(r) is Rule for r in spec.rules)
    data = spec_to_json(spec)
    assert data["rules"] == ["arrow-inter", "eta"]
    assert spec_from_json(json.loads(json.dumps(data))) == spec


def test_make_spec_refuses_an_unknown_rule():
    with pytest.raises(ItypesError) as info:
        make_spec({"a"}, {"arrow-inter", "bogus"})
    assert str(info.value) == "the rule set names an unknown rule 'bogus'"


def test_spec_equality_ignores_name():
    plain = make_spec({"a"}, BA_RULES, name="one")
    other = make_spec({"a"}, BA_RULES, name="two")
    assert plain == other
    assert hash(plain) == hash(other)
    assert plain != make_spec({"a", "b"}, BA_RULES, name="one")
    with pytest.raises(AttributeError):
        plain.name = "two"
    assert "name='one'" in repr(plain)
    copied = pickle.loads(pickle.dumps(plain))
    assert copied == plain and copied.name == "one"
    rebuilt = TheorySpec(atoms=plain.atoms, rules=plain.rules, name="one")
    assert rebuilt == plain and rebuilt.atom_equations == ()


def test_json_omits_distinguished_atoms_from_atom_list(bcd):
    data = spec_to_json(bcd)
    assert OMEGA not in data["atoms"]
    assert data["omega"] is True
    assert data["nu"] is False
