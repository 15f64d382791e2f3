"""Every law suite can fail.

Each case breaks one name that ``itypes.laws`` or ``itypes.search_laws``
reads, or one proof combinator or the head walk of ``itypes.subtype``, on a
fresh theory (the law universes are kept with the theory), and expects the
laws that read it to report failures: a law that cannot fail would pass
unseen.
"""

import pytest

from itypes import laws, search_laws, subtype
from itypes.assign import Verdict
from itypes.filters import up
from itypes.syntax import Arrow, Inter, parse_type as P
from itypes.theory import NamedTheory, named_theory

ATOMS = frozenset({"a", "b"})


def _irreflexive(leq):
    return lambda spec, a, b: a is not b and leq(spec, a, b)


def _refutes_omega_arrow(leq):
    pair = (P("omega"), P("omega -> omega"))
    return lambda spec, a, b: (a, b) != pair and leq(spec, a, b)


def _refuses(kind):
    return lambda member: lambda spec, x, a: not isinstance(a, kind) and member(spec, x, a)


def _drops_inter_functions(apply):
    # a function filter with an intersection generator applies to up(), and
    # any other to itself, so x1 <= x2 need not carry over to x1 y <= x2 y
    return lambda spec, x, y: up() if isinstance(x.generator, Inter) else x


def _swaps_premises(eta):
    # an eta node whose premises come in the wrong order: the traces that
    # share it through the theory's proof row must all fail the checker
    return lambda pdom, pcod: eta(pdom, pcod)._replace(premises=(pcod, pdom))


def _omega_head_first(heads):
    # omega -> omega, which omega-eta makes every type's last head in bcd,
    # comes first: the omega -> omega trace then starts from the proof of
    # another head
    def wrong(spec, a, prove):
        found = heads(spec, a, prove)
        return found[-1:] + found[:-1]
    return wrong


def _admissible(spec):
    # the corpus comes from the unbroken search
    corpus = [(c, m, a) for c, m, a, _ in search_laws.random_judgments(spec, ATOMS, 0, 25)]
    return lambda: [search_laws.admissible_rule_suite(spec, corpus)]


def _search_laws(spec):
    return lambda: [
        search_laws.search_soundness_law(spec, ATOMS, 0),
        search_laws.spine_filter_law(spec, ATOMS, 0),
        search_laws.subject_reduction_law(spec, ATOMS, 0),
    ]


@pytest.mark.parametrize(
    "module, name, wrong, suite, failing",
    [
        (laws, "leq", _irreflexive, lambda spec: lambda: laws.preorder_laws(spec, ATOMS, 3),
         {"refl", "trans"}),
        (laws, "leq", _refutes_omega_arrow,
         lambda spec: lambda: [laws.oracle_agreement_law(spec, ATOMS, 3)],
         {"oracle-agreement"}),
        (laws, "check_proof", lambda _: lambda spec, p: False,
         lambda spec: lambda: [laws.trace_soundness_law(spec, ATOMS, 3)],
         {"trace-soundness"}),
        (subtype, "_eta", _swaps_premises,
         lambda spec: lambda: [laws.trace_soundness_law(spec, ATOMS, 3)],
         {"trace-soundness"}),
        (subtype, "_heads", _omega_head_first,
         lambda spec: lambda: [laws.trace_soundness_law(spec, ATOMS, 3)],
         {"trace-soundness"}),
        (laws, "apply", lambda _: lambda spec, x, y: up(),
         lambda spec: lambda: laws.filter_laws(spec, ATOMS, 3), {"prop-simple"}),
        (laws, "member", _refuses(Arrow),
         lambda spec: lambda: laws.filter_laws(spec, ATOMS, 3), {"filter-upward-closure"}),
        (laws, "member", _refuses(Inter),
         lambda spec: lambda: laws.filter_laws(spec, ATOMS, 3), {"filter-inter-closure"}),
        (laws, "apply", _drops_inter_functions,
         lambda spec: lambda: laws.filter_laws(spec, ATOMS, 3), {"apply-monotone"}),
        (search_laws, "check_derivation", lambda _: lambda spec, d: False, _search_laws,
         {"search-soundness", "spine-filter", "subject-reduction"}),
        (search_laws, "derives", lambda _: lambda *args: (Verdict.UNKNOWN, None), _admissible,
         {"admissible-rules"}),
    ],
    ids=["leq-irreflexive", "leq-omega-arrow", "check_proof", "build-eta", "head-order",
         "apply", "member-arrow", "member-inter", "apply-inter", "check_derivation", "derives"],
)
def test_every_law_suite_can_fail(monkeypatch, module, name, wrong, suite, failing):
    spec = named_theory(NamedTheory.BCD, 2)
    run = suite(spec)
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    failed = {r.name for r in run() if r.failures}
    assert failing <= failed


def test_every_law_checks_nothing_in_a_theory_with_no_types():
    # ba with no atoms has an empty universe: every law is ok with 0 checked
    spec = named_theory(NamedTheory.BA, 0)
    results = laws.run_all(spec, frozenset(), 2, 0)
    assert {r.name for r in results} >= {
        "search-soundness", "spine-filter", "subject-reduction", "admissible-rules"}
    assert all(r.ok and r.checked == 0 for r in results)
    assert search_laws.random_judgments(spec, frozenset(), 0, 25) == []
