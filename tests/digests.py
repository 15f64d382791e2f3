"""Named sha256 digests of the library's answers over fixed universes.

Run from the repository root:

    PYTHONPATH=src python3 tests/digests.py             # one "family sha256" line each
    PYTHONPATH=src python3 tests/digests.py --dump F    # and one line per item in F

``tests/digests.txt`` holds the output for the committed tree, and CI
compares a fresh run with it, so a change that moves an answer moves its
family's digest.  A dump line is ``family, theory, item, value``, tab
separated, with a value longer than 64 characters given by its sha256; the
dumps of two trees diff into the items that moved.  Standard library and
``itypes`` only, and the name keeps pytest from collecting it.

The theories are ``ba``, ``ehr``, ``ao`` and ``bcd`` with atoms a, b, then
the specs ``generated_spec(random.Random(s))`` over their plain atoms, for s
in 0-199 in the first three families and in 0-29 in the others.  A theory's
universe is the types of size at most 5 (named) or 4 (generated) over its
atoms and constants; its canonical pool adds no type.  Each family hashes
the concatenated values of its items:

- ``leq``: "1" or "0", the decision of every ordered pair of a universe
  (272,691 pairs);
- ``traces``: ``json.dumps(proof_to_json(leq_trace(...)), sort_keys=True)``
  of every true pair (57,546 traces);
- ``canonical``: the printed canonical form of every type, and a newline;
- ``filters``: the generator of ``apply(spec, x, y)`` ("None" for the
  filter of the empty set) and a newline, for x and y the filter of the
  empty set or ``up(g)`` for g in the universe's canonical pool;
- ``verdicts``: the verdict of ``derives`` and a newline, at depths 8 and
  16, for 200 seeded judgments per theory: a term of
  ``search_laws._random_term`` at depth 1-3, 15% of them applied to
  ``(\\x. x x) (\\x. x x)``; x, y and z each bound with chance 0.7, and
  the target, drawn from the size-4 canonical pool;
- ``derivations``: ``json.dumps(derivation_to_json(d), sort_keys=True)``
  and a newline, for every derivation of ``verdicts``;
- ``laws``: ``json.dumps(r.to_json(), sort_keys=True)`` of every result of
  ``run_all`` at size 3 and seed 0;
- ``oracle``: every type of the saturation oracle's universe in index
  order, printed, with its ``succ`` row from ``oracle_relation`` in hex,
  a line each.  Its universes are its own: the named theories with 1, 2
  and 3 fresh atoms at sizes 1, 3 and 5 and with 1 at size 7, then the
  specs of ``theory_gen.SPECS`` at sizes 3 and 5 (48 + 4 + 60 universes,
  up to 714 types).
"""

import argparse
import contextlib
import hashlib
import json
import random
import sys

from itypes.assign import SearchBudget, derivation_to_json, derives
from itypes.filters import apply, up
from itypes.laws import run_all
from itypes.search_laws import _random_term
from itypes.subtype import (
    canonical,
    canonical_types,
    enumerate_types,
    leq,
    leq_trace,
    oracle_relation,
    proof_to_json,
)
from itypes.syntax import App, parse_term, print_type
from itypes.theory import NamedTheory, named_theory
from theory_gen import SPECS, generated_spec

OMEGA = parse_term("(\\x. x x) (\\x. x x)")
JUDGMENTS = 200  # per theory, in the verdicts and derivations families
DEPTHS = (8, 16)


def _theories(generated: int, named_size: int, generated_size: int):
    """(label, a new spec, atoms, size): the named theories with atoms a, b,
    then the generated specs of seeds below ``generated``, made one by one
    so that each one's tables are freed before the next."""
    for which in NamedTheory:
        yield which.value, named_theory(which, 2), frozenset("ab"), named_size
    for seed in range(generated):
        spec = generated_spec(random.Random(seed))
        yield f"gen{seed}", spec, spec.plain_atoms, generated_size


def _universes():
    for label, spec, atoms, size in _theories(200, 5, 4):
        yield label, spec, enumerate_types(spec.universe_atoms(atoms), size)


def leq_items():
    for label, spec, types in _universes():
        for a in types:
            for b in types:
                yield label, f"{a} <= {b}", "1" if leq(spec, a, b) else "0"


def trace_items():
    for label, spec, types in _universes():
        for a in types:
            for b in types:
                p = leq_trace(spec, a, b)
                if p is not None:
                    yield label, f"{a} <= {b}", json.dumps(proof_to_json(p), sort_keys=True)


def canonical_items():
    for label, spec, types in _universes():
        for t in types:
            yield label, str(t), print_type(canonical(spec, t)) + "\n"


def filter_items():
    for label, spec, atoms, size in _theories(30, 5, 4):
        pool = canonical_types(spec, spec.universe_atoms(atoms), size)
        filters = [up(), *map(up, pool)]
        for x in filters:
            for y in filters:
                z = apply(spec, x, y).generator
                yield label, f"{x.generator} . {y.generator}", f"{z}\n"


def _searches():
    """(label, judgment, verdict, derivation) of seeded judgments over each
    theory's size-4 canonical pool, at each depth of ``DEPTHS``."""
    for n, (label, spec, atoms, size) in enumerate(_theories(30, 4, 4)):
        rng = random.Random(n)
        pool = canonical_types(spec, spec.universe_atoms(atoms), size)
        for _ in range(JUDGMENTS):
            m = _random_term(rng, rng.randrange(1, 4))
            if rng.random() < 0.15:
                m = App(m, OMEGA)
            ctx = {x: rng.choice(pool) for x in "xyz" if rng.random() < 0.7}
            a = rng.choice(pool)
            shown = ", ".join(f"{x}: {t}" for x, t in ctx.items())
            for depth in DEPTHS:
                v, d = derives(spec, ctx, m, a, SearchBudget(max_depth=depth))
                yield label, f"{shown} |- {m} : {a} at depth {depth}", v, d


def verdict_items():
    for label, judgment, v, _ in _searches():
        yield label, judgment, v.value + "\n"


def derivation_items():
    for label, judgment, _, d in _searches():
        if d is not None:
            yield label, judgment, json.dumps(derivation_to_json(d), sort_keys=True) + "\n"


def law_items():
    for label, spec, atoms, size in _theories(30, 3, 3):
        for r in run_all(spec, atoms, size, 0):
            yield label, r.name, json.dumps(r.to_json(), sort_keys=True)


def oracle_items():
    universes = [(f"{which.value}{k}", named_theory(which, k), size)
                 for which in NamedTheory for k in (1, 2, 3) for size in (1, 3, 5)]
    universes += [(f"{which.value}1", named_theory(which, 1), 7) for which in NamedTheory]
    universes += [(f"gen{seed}", spec, size)
                  for seed, spec in enumerate(SPECS) for size in (3, 5)]
    for label, spec, size in universes:
        index, succ = oracle_relation(spec, spec.plain_atoms, size)
        rows = "".join(f"{print_type(t)}\t{succ[i]:x}\n" for t, i in index.items())
        yield label, f"size {size}", rows


FAMILIES = {
    "leq": leq_items,
    "traces": trace_items,
    "canonical": canonical_items,
    "filters": filter_items,
    "verdicts": verdict_items,
    "derivations": derivation_items,
    "laws": law_items,
    "oracle": oracle_items,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="FILE", help="write one line per item to FILE")
    args = parser.parse_args(argv)
    with open(args.dump, "w") if args.dump else contextlib.nullcontext() as dump:
        for family, items in FAMILIES.items():
            digest = hashlib.sha256()
            for label, item, value in items():
                data = value.encode()
                digest.update(data)
                if dump is not None:
                    if len(value) > 64:
                        value = hashlib.sha256(data).hexdigest()
                    dump.write(f"{family}\t{label}\t{item}\t{value.strip()}\n")
            print(family, digest.hexdigest())

if __name__ == "__main__":
    sys.exit(main())
