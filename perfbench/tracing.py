"""Spans for the traced benchmark run.

A traced worker replaces names that one itypes module imports from another
(``itypes.assign.leq``, ``itypes.laws.apply``, ...) by wrappers that record
one span per call: name, start, end and the span that was open when the call
began.  The benchmark's own calls into the public API are root spans.  Spans
stay in flat arrays in memory and are written out once, when the worker
ends.  A layer's self time is its spans' duration minus the time their child
spans cover.

Run as a script, this module is the traced stand-in for
``python -m itypes.cli``::

    python3 perfbench/tracing.py SPANS_FILE CLI_ARGS...

It installs the wrappers, runs ``itypes.cli.main(CLI_ARGS)``, writes the
spans to SPANS_FILE and their per-layer totals to SPANS_FILE.json, and exits
with the CLI's exit code.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time

# (importing module, imported name, span name).  The span is named after the
# layer that defines the function, whichever module calls it.
WRAP_TARGETS = (
    ("itypes.laws", "leq", "subtype.leq"),
    ("itypes.laws", "leq_trace", "subtype.leq_trace"),
    ("itypes.laws", "check_proof", "subtype.check_proof"),
    ("itypes.laws", "oracle_relation", "subtype.oracle_relation"),
    ("itypes.laws", "canonical_types", "subtype.canonical_types"),
    ("itypes.laws", "apply", "filters.apply"),
    ("itypes.laws", "member", "filters.member"),
    ("itypes.laws", "filter_leq", "filters.filter_leq"),
    ("itypes.assign", "leq", "subtype.leq"),
    ("itypes.assign", "normalize", "subtype.normalize"),
    ("itypes.assign", "canonical", "subtype.canonical"),
    ("itypes.assign", "canonical_types", "subtype.canonical_types"),
    ("itypes.filters", "leq", "subtype.leq"),
    ("itypes.filters", "canonical", "subtype.canonical"),
    ("itypes.filters", "derives", "assign.derives"),
    ("itypes.classify", "leq", "subtype.leq"),
    ("itypes.cli", "leq_trace", "subtype.leq_trace"),
    ("itypes.cli", "proof_to_json", "subtype.proof_to_json"),
    ("itypes.cli", "derives", "assign.derives"),
    ("itypes.cli", "interpret_member", "filters.interpret_member"),
    ("itypes.cli", "adequacy_report", "classify.adequacy_report"),
    ("itypes.cli", "parse_type", "syntax.parse_type"),
    ("itypes.cli", "parse_term", "syntax.parse_term"),
    ("itypes.cli", "named_theory", "theory.named_theory"),
)

PROOF_SPAN = "subtype.check_proof"


class MissingWrapTarget(RuntimeError):
    """A module no longer has a name the benchmark traces."""


def tree_nodes(tree) -> int:
    """Nodes of a proof or derivation tree, counted as its checker visits
    them: a subtree shared by two premises counts twice."""
    count, stack = 0, [tree]
    while stack:
        q = stack.pop()
        count += 1
        stack.extend(q.premises)
    return count


class Recorder:
    """Times calls; when ``traced``, also records each one as a span."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[int] = []
        self.proof_nodes = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        if name != PROOF_SPAN:
            return traced

        def counted(spec, proof):
            self.proof_nodes += tree_nodes(proof)
            return traced(spec, proof)

        return counted

    def call(self, name: str, fn, *args):
        """``fn(*args)`` and its duration in seconds; a root span if traced."""
        if self.traced:
            fn = self.wrap(name, fn)
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0

    def install(self, targets=WRAP_TARGETS):
        """Wrap every target; a target that no longer exists is an error."""
        for module, attr, name in targets:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise MissingWrapTarget(f"{module}.{attr} (span {name})")
            setattr(mod, attr, self.wrap(name, fn))

    def totals(self) -> dict:
        """Per span name: [calls, self seconds], plus the proof node count."""
        n = len(self.span_name)
        own = [0.0] * n
        for i in range(n):
            d = self.end[i] - self.start[i]
            own[i] += d
            p = self.parent[i]
            if p >= 0:
                own[p] -= d
        out = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            acc = out[self.names[self.span_name[i]]]
            acc[0] += 1
            acc[1] += own[i]
        out["subtype.proof_nodes"] = [self.proof_nodes, 0.0]
        return out

    def dump(self, path: str):
        """Write the spans: one JSON header line, then the four arrays
        (name ids int32, parent indices int32, starts and ends float64)."""
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(f)


def main(argv) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    import itypes.cli

    rec = Recorder(traced=True)
    rec.install()
    rc, _ = rec.call("cli.main", itypes.cli.main, cli_args)
    sys.stdout.flush()
    rec.dump(spans_file)
    with open(spans_file + ".json", "w") as f:
        json.dump(rec.totals(), f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
