"""A seeded generator of valid theory specs, for the tests and the digests.

It makes specs of shapes the named theories lack: equated atoms beside plain
ones, nu or omega tops with or without the omega rules, and up to three
plain atoms.  Standard library and ``itypes`` only, so ``digests.py`` runs
without pytest.
"""

import random

from itypes.syntax import NU, OMEGA, Arrow, Atom, Inter
from itypes.theory import BA_RULES, Rule, make_spec

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
