"""Every law on generated theories, beyond the four named ones.

The seeded generator of ``theory_gen`` makes valid specs of shapes the
named theories lack: equated atoms beside plain ones, nu or omega tops with
or without the omega rules, and up to three plain atoms.
"""

import pytest

from itypes.assign import Verdict
from itypes.classify import fun_predicate
from itypes.laws import run_all
from itypes.subtype import eq
from itypes.syntax import Atom
from itypes.theory import validate

from theory_gen import SPECS


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
