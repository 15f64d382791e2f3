"""Every law on generated theories, beyond the four named ones.

A seeded generator makes valid specs of shapes the named theories lack:
equated atoms beside plain ones, nu or omega tops with or without the
omega rules, and up to three plain atoms.
"""

import random

import pytest

from itypes.assign import Verdict
from itypes.classify import fun_predicate
from itypes.laws import run_all
from itypes.subtype import eq
from itypes.syntax import NU, OMEGA, Arrow, Atom, Inter
from itypes.theory import BA_RULES, Rule, make_spec, validate

_TOPS = (
    (set(), set()),
    ({NU}, {Rule.NU_TOP}),
    ({OMEGA}, {Rule.OMEGA_TOP}),
    ({OMEGA}, {Rule.OMEGA_TOP, Rule.OMEGA_ETA}),
    ({OMEGA}, {Rule.OMEGA_TOP, Rule.OMEGA_LAZY}),
)


def generated_spec(rng: random.Random):
    """1-3 plain atoms; no top, a nu top, or an omega top with omega-eta,
    omega-lazy or neither; and equations whose right sides are one or two
    arrows between atoms later in the order, so they are acyclic."""
    plain = "abc"[: rng.randint(1, 3)]
    top, rules = rng.choice(_TOPS)
    equations = {}
    for i, name in enumerate(plain):
        later = [Atom(b) for b in plain[i + 1:]]
        if later and rng.random() < 0.5:
            arrows = [Arrow(rng.choice(later), rng.choice(later))
                      for _ in range(rng.randint(1, 2))]
            equations[name] = arrows[0] if len(arrows) == 1 else Inter(*arrows)
    return make_spec(set(plain) | top, BA_RULES | rules, equations)


SPECS = [generated_spec(random.Random(seed)) for seed in range(30)]


@pytest.mark.parametrize("seed", range(30))
def test_every_law_holds_on_generated_theories(seed):
    spec = SPECS[seed]
    assert validate(spec) == []
    results = run_all(spec, spec.plain_atoms, 3, seed)
    bad = [(r.name, r.failures[:3]) for r in results if not r.ok]
    assert bad == []
    assert all(r.checked or r.skipped for r in results)


@pytest.mark.parametrize("seed", range(30))
def test_fun_predicate_of_an_atom_is_its_equivalence(seed):
    # an atom is functional when it is equated, or equivalent to nu, or to
    # omega with omega-eta; in a valid spec that is nu or omega itself
    spec = SPECS[seed]
    for name in spec.atoms:
        a = Atom(name)
        want = (
            (spec.has_nu and eq(spec, a, spec.nu))
            or name in spec.equations
            or (spec.omega_eta and eq(spec, a, spec.omega))
        )
        assert (fun_predicate(spec, a) is Verdict.YES) == want
