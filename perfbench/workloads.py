"""Workload definitions for the itypes benchmark.

Every workload turns ``--seed`` into inputs here, in plain strings; the
worker process hands only those inputs to itypes.  A workload is split into
units, and each unit runs in a fresh worker process, so the memo tables of
``subtype`` start cold as they do for a CLI query or a test session.  The
load is closed-loop with a single client: the next call starts when the
previous one has returned.

Each workload records why it was chosen, which input property it varies and
which end-to-end numbers ROADMAP items 2 and 3 are expected to move on it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

# Theories by key: (named theory, number of fresh atoms a, b, c, ...).
THEORIES = {
    "ba": ("ba", 2),
    "ba3": ("ba", 3),
    "ehr": ("ehr", 2),
    "ehr0": ("ehr", 0),
    "ao": ("ao", 2),
    "ao0": ("ao", 0),
    "bcd": ("bcd", 2),
    "bcd3": ("bcd", 3),
    "ehr3": ("ehr", 3),
    "ao3": ("ao", 3),
}

# The search budget, fixed here rather than inherited from the CLI default
# SearchBudget(6, 64): under that default one ehr judgment of a probe stream
# ran for 270 s before ending UNKNOWN.  (4, 16) is the budget that
# laws.random_judgments uses for its corpora.
SEARCH_BUDGET = (4, 16)
BUDGET_FLAGS = [
    "--budget-size", str(SEARCH_BUDGET[0]),
    "--budget-depth", str(SEARCH_BUDGET[1]),
]

# Canonical size-4 types over atoms a, b and each theory's constants, as
# ``canonical_types`` printed them when the benchmark was written.  They are
# kept as data so that a change to canonical forms or to enumeration order
# cannot change the inputs.
POOL4 = {
    "ba": ["a", "b", "a -> a", "a -> b", "b -> a", "b -> b", "a & b"],
    "ehr": ["a", "b", "nu", "a -> a", "a -> b", "a -> nu", "b -> a", "b -> b",
            "b -> nu", "nu -> a", "nu -> b", "nu -> nu", "a & b", "a & nu",
            "b & nu"],
    "ao": ["a", "b", "omega", "a -> a", "a -> b", "a -> omega", "b -> a",
           "b -> b", "b -> omega", "omega -> a", "omega -> b",
           "omega -> omega", "a & b"],
    "bcd": ["a", "b", "omega", "a -> a", "a -> b", "a -> omega", "b -> a",
            "b -> b", "b -> omega", "omega -> a", "omega -> b",
            "omega -> omega", "a & b"],
}

DELTA = r"\x. x x"
BOTTOM = rf"({DELTA}) ({DELTA})"

# Judgments whose exact answer is known: (theory, context, term, type,
# answer).  A verdict that is neither the answer nor UNKNOWN is a failure.
# The first four are acceptance criterion 4's golden typings; the last two
# are ROADMAP item 3's cases, both NO by the generation lemma and both
# UNKNOWN under today's candidate-pool search.
KNOWN_JUDGMENTS = [
    ("ba", "", DELTA, "(a -> b) & a -> b", "yes"),
    ("ao", "", rf"(\y. \x. x) ({BOTTOM})", "a -> a", "yes"),
    ("ehr", "", rf"(\y. \x. x) (\z. {BOTTOM})", "a -> a", "yes"),
    ("ehr", "", rf"(\y. \x. x) ({BOTTOM})", "a -> a", "no"),
    ("ba3", "x: a -> b, y: a", "x y", "c", "no"),
    ("ba3", "x: (a -> b) & (c -> a), y: c", "x (x (x y))", "b", "no"),
]

# Filter-interpretation memberships with known answers: (theory,
# environment, term, type, answer).  Criterion 6 makes each equal to the
# derivability of the same judgment from the environment's generators.
KNOWN_INTERP = [
    ("bcd", "x=a", "x", "a", "yes"),
    ("ba", "x=a -> b, y=a", "x y", "b", "yes"),
    ("ba3", "x=a -> b, y=a", "x y", "c", "no"),
    ("ehr", "", r"\x. x", "a -> a", "yes"),
    ("bcd", "", BOTTOM, "omega", "yes"),
    ("ao", "x=a", r"\y. x", "b -> a", "yes"),
    ("ba", "", r"\x. x", "a", "no"),
]

# Acceptance criterion 7's classification table, on the same theories:
# strict, natural, simple-adequate, F-type theory, inference-adequate.
KNOWN_CLASSIFY = [
    ("ba", {"strict": "True", "natural": "False", "simple_adequate": "True",
            "f_type_theory": "yes", "inference_adequate": "True"}),
    ("ehr0", {"strict": "True", "natural": "False", "simple_adequate": "False",
              "f_type_theory": "yes", "inference_adequate": "True"}),
    ("ao0", {"strict": "False", "natural": "True", "simple_adequate": "False",
             "f_type_theory": "yes", "inference_adequate": "True"}),
    ("bcd", {"strict": "False", "natural": "True", "simple_adequate": "True",
             "f_type_theory": "no", "inference_adequate": "True"}),
]

# Closed combinators for the infer_types phase, with one type each that must
# be among the results in every theory.
INFER_TERMS = [
    (r"\x. x", "a -> a"),
    (r"\x. \y. x", "a -> b -> a"),
    (DELTA, None),
    (r"\f. \x. f (f x)", None),
]


# ---------------------------------------------------------------- terms/types


def random_term(rng: random.Random, depth: int) -> str:
    """A random lambda term over x, y and z, printed; the shape distribution
    is that of laws.random_judgments."""

    def gen(depth):
        if depth == 0:
            return ("var", rng.choice("xyz"))
        match rng.randrange(3):
            case 0:
                return ("var", rng.choice("xyz"))
            case 1:
                return ("lam", rng.choice("xyz"), gen(depth - 1))
            case _:
                return ("app", gen(depth - 1), gen(depth - 1))

    def show(t):
        match t:
            case ("var", x):
                return x
            case ("lam", x, body):
                return f"\\{x}. {show(body)}"
            case ("app", f, a):
                fs = f"({show(f)})" if f[0] == "lam" else show(f)
                return f"{fs} {show(a) if a[0] == 'var' else f'({show(a)})'}"

    return show(gen(depth))


def random_type(rng: random.Random, size: int, atoms) -> str:
    """A random type of about ``size`` nodes, printed fully parenthesized."""
    if size <= 2:
        return rng.choice(atoms)
    left = rng.randrange(1, size - 1)
    lhs = random_type(rng, left, atoms)
    rhs = random_type(rng, size - 1 - left, atoms)
    op = "->" if rng.random() < 0.6 else "&"
    return f"({lhs}) {op} ({rhs})"


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """A workload: how to make unit ``k`` from a seed, and how it is read.

    ``tail_pct`` is the latency percentile reported as ``lat_tail_ms``; it
    is fixed per workload so that runs and commits compare the same
    percentile, and ``min_units`` units always run, which puts at least ten
    samples beyond it.  ``decided_share`` is taken over those first
    ``min_units`` units, so it repeats exactly for a seed.
    """

    name: str
    tail_pct: float
    min_units: int
    why: str
    varies: str
    expected: str

    def unit(self, seed: int, k: int) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Certify(Workload):
    """The law-suite traffic of acceptance criteria 2, 3 and 8."""

    name: str = "certify"
    tail_pct: float = 75.0
    min_units: int = 3  # 16 law calls each; 48 samples leave 12 beyond p75
    why: str = (
        "The law suites of criteria 2, 3 and 8 over the size-5 universes: "
        "237 types per theory, 56,169 pairs, many small types that share "
        "subterms.  The subtype decision, proof building, check_proof, the "
        "saturation oracle and filter application do all the work; assign "
        "does none."
    )
    varies: str = (
        "sharing (high) and memo working set: about 225k memoised leq "
        "decisions are live by the end of a pass."
    )
    expected: str = (
        "Item 2 (interned core, decide then prove): ops_per_s up and "
        "peak_rss_mb down, through subtype.leq self time and "
        "subtype.proof_nodes.  Item 3 (exact inversion): no change."
    )
    theories: tuple = (("ba3", ("a", "b", "c")), ("ehr", ("a", "b")),
                       ("ao", ("a", "b")), ("bcd", ("a", "b")))
    size: int = 5

    def unit(self, seed, k):
        order = list(self.theories)
        random.Random(seed).shuffle(order)  # the seed only orders theories
        return {"kind": "certify", "size": self.size,
                "theories": [[key, list(atoms)] for key, atoms in order]}


@dataclass(frozen=True)
class Search(Workload):
    """A seeded stream of typing judgments through ``derives``."""

    name: str = "search"
    tail_pct: float = 99.0
    min_units: int = 2  # 4,012 judgments leave 40 beyond p99
    why: str = (
        "Every judgment of a seeded stream, not only the YES ones, goes "
        "through derives at one fixed budget in all four theories; the "
        "UNKNOWN tail is where ROADMAP item 3 acts.  assign does most of "
        "the work (candidate pools, normalize/canonical); subtype sees only "
        "small types; no universes or traces are built."
    )
    varies: str = (
        "assign share (high): random terms of depth 1-3 over x, y, z with "
        "contexts and targets drawn from canonical size-4 types."
    )
    expected: str = (
        "Item 2: ops_per_s up through subtype.normalize/canonical self "
        "time.  Item 3: decided_share and ops_per_s up, assign.unknown_s "
        "down."
    )
    # About 1% of the judgments take 10-600 ms and together most of the
    # time, so a fresh random sample per run moved ops_per_s by some 20%
    # between seeds.  The stream is therefore one fixed corpus, drawn from
    # the generator with CORPUS_SEED; each unit runs all of it, in an order
    # that --seed and the unit number choose, so units differ only in the
    # order judgments meet the memo tables.
    corpus_size: int = 2000
    infer_size: int = 5

    def unit(self, seed, k):
        stream = list(search_corpus(self.corpus_size))
        random.Random(seed * 1_000_003 + k).shuffle(stream)
        stream += [list(j) for j in KNOWN_JUDGMENTS]
        infer = [[key, term, must] for key in sorted(POOL4)
                 for term, must in INFER_TERMS]
        return {"kind": "search", "budget": list(SEARCH_BUDGET),
                "judgments": stream, "infer": infer,
                "infer_size": self.infer_size, "infer_atoms": ["a", "b"]}


CORPUS_SEED = 4


@functools.lru_cache(maxsize=2)
def search_corpus(size: int) -> list:
    """``size`` judgments ``[theory, context, term, type, None]``."""
    rng = random.Random(CORPUS_SEED)
    names = sorted(POOL4)
    out = []
    for _ in range(size):
        key = rng.choice(names)
        pool = POOL4[key]
        term = random_term(rng, rng.randrange(1, 4))
        ctx = ", ".join(
            f"{v}: {rng.choice(pool)}" for v in "xyz" if rng.random() < 0.7
        )
        out.append([key, ctx, term, rng.choice(pool), None])
    return out


@dataclass(frozen=True)
class Cli(Workload):
    """One-shot ``python -m itypes.cli`` processes, one at a time."""

    name: str = "cli"
    tail_pct: float = 90.0
    min_units: int = 13  # 8 processes each; 104 leave 10 beyond p90
    why: str = (
        "Every user query pays interpreter start, import, argparse, theory "
        "construction, a cold memo and printing.  The leq inputs are fresh "
        "and unshared, tens to a few hundred nodes, unlike certify's."
    )
    varies: str = (
        "type size (large, unshared) and process start-up: leq --output "
        "json, check, interp and classify."
    )
    expected: str = (
        "Item 2: no change (its gain is on shared memo work, which a "
        "one-shot process lacks).  Item 3: decided_share up, through the "
        "item-3 cases in the check and interp corpora."
    )
    leq_pairs: int = 2  # true and false leq queries per unit, each

    def unit(self, seed, k):
        rng = random.Random(seed * 1_000_003 + k)
        commands = []
        for _ in range(self.leq_pairs):
            for want in ("true", "false"):
                key = rng.choice(["ba3", "ehr3", "ao3", "bcd3"])
                atoms = ["a", "b"] + {"ehr3": ["nu"], "ao3": ["omega"],
                                      "bcd3": ["omega"]}.get(key, [])
                parts = [random_type(rng, rng.randrange(5, 40, 2), atoms)
                         for _ in range(rng.randint(3, 10))]
                lhs = " & ".join(f"({p})" for p in parts)
                # a conjunct of lhs is above it; atom c occurs nowhere in it
                rhs = rng.choice(parts) if want == "true" else "c"
                commands.append({"theory": key, "cmd": "leq", "want": want,
                                 "args": ["--output", "json", lhs, rhs]})
        # the corpora cycle in a seeded order, two checks per unit
        checks = _cycle(KNOWN_JUDGMENTS, seed, 2 * k, 2)
        for key, ctx, term, ty, want in checks:
            commands.append({"theory": key, "cmd": "check", "want": want,
                             "args": BUDGET_FLAGS + [ctx, term, ty]})
        for key, env, term, ty, want in _cycle(KNOWN_INTERP, seed, k, 1):
            commands.append({"theory": key, "cmd": "interp", "want": want,
                             "args": BUDGET_FLAGS + [env, term, ty]})
        for key, want in _cycle(KNOWN_CLASSIFY, seed, k, 1):
            commands.append({"theory": key, "cmd": "classify", "want": want,
                             "args": []})
        rng.shuffle(commands)
        return {"kind": "cli", "commands": commands}


def _cycle(items, seed, start, count):
    """Items ``start .. start+count-1`` of a seeded endless cycle."""
    order = list(items)
    random.Random(seed).shuffle(order)
    return [order[i % len(order)] for i in range(start, start + count)]


WORKLOADS = {w.name: w for w in (Certify(), Search(), Cli())}
