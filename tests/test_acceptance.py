"""Acceptance gate: the eight release criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines; each
criterion is a single test so the pytest verdict doubles as the gate status.
"""

import itertools

import pytest

from itypes.assign import (
    SearchBudget,
    Verdict,
    check_derivation,
    derives,
)
from itypes.classify import adequacy_report
from itypes.filters import up, interpret_member
from itypes.laws import (
    _universe,
    filter_laws,
    oracle_agreement_law,
    preorder_laws,
    trace_soundness_law,
)
from itypes.search_laws import admissible_rule_suite, random_judgments
from itypes.subtype import canonical_types, eq, leq
from itypes.syntax import App, Atom, Lam, Var, parse_term as T, parse_type as P
from itypes.theory import NamedTheory, named_theory

DELTA = r"\x. x x"
BOTTOM = rf"({DELTA}) ({DELTA})"

BA = named_theory(NamedTheory.BA, 2)
BA3 = named_theory(NamedTheory.BA, 3)
EHR = named_theory(NamedTheory.EHR, 2)
AO = named_theory(NamedTheory.AO, 2)
BCD = named_theory(NamedTheory.BCD, 2)
THEORIES = {"ba": BA, "ehr": EHR, "ao": AO, "bcd": BCD}
# Ba gets a third atom so its pair count clears the 10^4 floor
ORACLE_THEORIES = {"ba": BA3, "ehr": EHR, "ao": AO, "bcd": BCD}


def report(n, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {n} [{title}]: {status}{suffix}")
    assert ok, f"criterion {n} [{title}] failed{suffix}"


def test_criterion_1_golden_subtyping_table():
    checks = [
        eq(BCD, P("omega"), P("omega -> omega")),
        leq(BCD, P("(a -> b) & (a -> c)"), P("a -> b & c")),
        leq(AO, P("a -> b"), P("omega -> omega")),
        not leq(AO, P("omega"), P("omega -> omega")),
        leq(EHR, P("a -> b"), P("nu")),
        not leq(BA, P("a"), P("b")),
    ]
    report(1, "golden subtyping table", all(checks), f"{sum(checks)}/6 rows")


def test_criterion_2_oracle_agreement_and_traces():
    pairs = 0
    failures = []
    for name, spec in ORACLE_THEORIES.items():
        atoms = frozenset({"a", "b", "c"} if name == "ba" else {"a", "b"})
        types, _, _ = _universe(spec, atoms, 5)
        n_pairs = len(types) ** 2
        assert n_pairs >= 10**4, f"{name}: only {n_pairs} pairs"
        pairs += n_pairs
        agree = oracle_agreement_law(spec, atoms, 5)
        traces = trace_soundness_law(spec, atoms, 5)
        failures += [(name, f) for f in agree.failures + traces.failures]
    report(2, "oracle agreement + trace soundness", not failures, f"{pairs} pairs")


def test_criterion_3_preorder_law_suite():
    checked = 0
    failures = []
    for name, spec in ORACLE_THEORIES.items():
        atoms = {"a", "b", "c"} if name == "ba" else {"a", "b"}
        for law in preorder_laws(spec, atoms, 5):
            checked += law.checked
            failures += [(name, law.name, f) for f in law.failures]
    report(3, "preorder laws", not failures, f"{checked} instances")


GOLDEN_TYPINGS = [
    ("ba", {}, DELTA, "(a -> b) & a -> b", True),
    ("ao", {}, rf"(\y. \x. x) ({BOTTOM})", "a -> a", True),
    ("ehr", {}, rf"(\y. \x. x) (\z. {BOTTOM})", "a -> a", True),
    ("ehr", {}, rf"(\y. \x. x) ({BOTTOM})", "a -> a", False),
]


def test_criterion_4_golden_typings():
    budget = SearchBudget(4, 24)
    ok = True
    for name, ctx, term, ty, want_yes in GOLDEN_TYPINGS:
        spec = THEORIES[name]
        v, d = derives(spec, ctx, T(term), P(ty), budget)
        if want_yes:
            ok = ok and v is Verdict.YES and check_derivation(spec, d)
        else:
            ok = ok and v is not Verdict.YES
    report(4, "golden typings", ok)


def _clause_check(spec, ctx, m, a, d):
    # Generation Lemma round trip on a Yes result
    if not check_derivation(spec, d):
        return False
    omega = Atom("omega")
    if spec.has_omega and eq(spec, a, omega):
        return True
    match m:
        case Var(x):
            return x in ctx and leq(spec, ctx[x], a)
        case App():
            tags = _tags(d)
            return bool(tags & {"ArrowE", "AxOmega"})
        case Lam():
            tags = _tags(d)
            return bool(tags & {"ArrowI", "AxNu", "AxOmega"})
    return False


def _tags(d):
    out = {d.rule}
    for p in d.premises:
        if p.term == d.term:
            out |= _tags(p)
    return out


def test_criterion_5_admissible_rules_and_generation():
    budget = SearchBudget(4, 24)
    corpus = {name: [] for name in THEORIES}
    for name, ctx, term, ty, want_yes in GOLDEN_TYPINGS:
        if want_yes:
            corpus[name].append((ctx, T(term), P(ty)))
    counted = sum(len(v) for v in corpus.values())
    seed = 11
    for name, spec in THEORIES.items():
        extra = random_judgments(spec, {"a", "b"}, seed, 12)
        corpus[name] += [(ctx, m, a) for ctx, m, a, _ in extra]
        counted += len(extra)
    assert counted >= 50, f"only {counted} judgments"

    failures = []
    for name, spec in THEORIES.items():
        suite = admissible_rule_suite(spec, corpus[name], budget)
        failures += [(name, c) for c in suite.failures]
        for ctx, m, a in corpus[name]:
            v, d = derives(spec, ctx, m, a, budget)
            if v is not Verdict.YES or not _clause_check(spec, ctx, m, a, d):
                failures.append((name, str(m), str(a), "generation"))
    report(5, "admissible rules + generation round trip", not failures,
           f"{counted} judgments")


def test_criterion_6_interpretation_equivalence():
    terms = [T(r"\x. x"), T(r"\x. \y. x"), T(DELTA), T(r"\x. x x")]
    budget = SearchBudget(4, 24)
    mismatches = []
    simple_failures = []
    for name, spec in THEORIES.items():
        types = canonical_types(spec, spec.atoms, 4)
        gens = canonical_types(spec, spec.atoms, 3)
        for m, a in itertools.product(terms, types):
            vi = interpret_member(spec, m, {}, a, budget)
            vd, _ = derives(spec, {}, m, a, budget)
            if (vi is Verdict.YES) != (vd is Verdict.YES):
                mismatches.append((name, str(m), str(a)))
        # open subject exercises the environment-to-basis translation
        for g, a in itertools.product(gens, types):
            vi = interpret_member(spec, Var("x"), {"x": up(g)}, a, budget)
            vd, _ = derives(spec, {"x": g}, Var("x"), a, budget)
            if vi is not vd:
                mismatches.append((name, "x", str(g), str(a)))
        for law in filter_laws(spec, frozenset({"a", "b"}), 4):
            if law.name == "prop-simple" and law.failures:
                simple_failures += [(name, f) for f in law.failures]
    ok = not mismatches and not simple_failures
    report(6, "interpretation agrees with derivability", ok)


CLASSIFICATION_ROWS = {
    # strict, natural, simple-adequate, f-type, inference-adequate
    "ba": (True, False, True, "yes", True),
    "ehr": (True, False, False, "yes", True),
    "ao": (False, True, False, "yes", True),
    "bcd": (False, True, True, "no", True),
}


def test_criterion_7_classification_table():
    specs = {
        "ba": BA,
        "ehr": named_theory(NamedTheory.EHR),  # exact constant set {nu}
        "ao": named_theory(NamedTheory.AO),  # exact constant set {omega}
        "bcd": BCD,
    }
    failures = []
    for name, (strict, natural, simple, f, inference) in CLASSIFICATION_ROWS.items():
        r = adequacy_report(specs[name])
        got = (r.strict, r.natural, r.simple_adequate, r.f_type_theory.value,
               r.inference_adequate)
        if got != (strict, natural, simple, f, inference):
            failures.append((name, got))
    report(7, "classification table", not failures, str(failures) if failures else "")


def test_criterion_8_filter_laws():
    checked = 0
    failures = []
    for name, spec in THEORIES.items():
        for law in filter_laws(spec, frozenset({"a", "b"}), 5):
            checked += law.checked
            failures += [(name, law.name, f) for f in law.failures]
    report(8, "filter laws + apply monotonicity", not failures,
           f"{checked} instances")
