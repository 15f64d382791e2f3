"""Run one unit of a workload in a fresh process.

    python3 perfbench/worker.py < unit.json

The unit (made by workloads.py) arrives as JSON on stdin, with ``trace``,
``spans`` (where a traced unit writes its spans) and ``setup_only`` added by
run.py.  The worker imports itypes, builds the theories, parses the inputs,
runs them while timing each call, checks every output, and prints one JSON
object on stdout.  Set-up is timed from before ``import itypes``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import tracing
import workloads

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 60


def theory_keys(unit: dict) -> list[str]:
    """The theories a unit's inputs refer to."""
    keys = {t[0] for t in unit.get("theories", [])}
    keys |= {j[0] for j in unit.get("judgments", [])}
    keys |= {c["theory"] for c in unit.get("commands", [])}
    return sorted(keys)


def build_theories(keys):
    """The workload's theories by key, each validated; and the build time."""
    from itypes import NamedTheory, named_theory, validate

    t0 = clock()
    specs = {}
    for key in keys:
        name, fresh = workloads.THEORIES[key]
        spec = named_theory(NamedTheory(name), fresh)
        if validate(spec):
            raise ValueError(f"theory {key} fails validation: {validate(spec)}")
        specs[key] = spec
    return specs, clock() - t0


def parse_ctx(text, spec, sep):
    from itypes import parse_type

    out = {}
    for entry in filter(None, (e.strip() for e in text.split(","))):
        var, ty = entry.split(sep, 1)
        out[var.strip()] = parse_type(ty, spec)
    return out


# ---------------------------------------------------------------- certify

LAWS = ("preorder", "oracle_agreement", "trace_soundness", "filter")


def run_certify(unit, rec):
    t0 = clock()
    from itypes import enumerate_types, laws

    specs, build_s = build_theories(theory_keys(unit))
    setup_s = clock() - t0
    out = {"setup_s": setup_s, "build_s": build_s}
    if unit["setup_only"]:
        return out
    if rec.traced:
        rec.install()
    fns = {"preorder": laws.preorder_laws,
           "oracle_agreement": laws.oracle_agreement_law,
           "trace_soundness": laws.trace_soundness_law,
           "filter": laws.filter_laws}
    size = unit["size"]
    law_s = dict.fromkeys(LAWS, 0.0)
    checked = dict.fromkeys(LAWS, 0)
    lat_ms, failures, pairs = [], [], 0
    for key, atoms in unit["theories"]:
        spec = specs[key]
        consts = {c for c in ("omega", "nu") if c in spec.atoms}
        pairs += len(enumerate_types(set(atoms) | consts, size)) ** 2
        for law in LAWS:
            res, dt = rec.call(f"laws.{law}", fns[law], spec, frozenset(atoms), size)
            law_s[law] += dt
            lat_ms.append(dt * 1e3)
            for r in res if isinstance(res, list) else [res]:
                checked[law] += r.checked
                failures += [f"{key} {r.name}: {f!r}" for f in r.failures[:5]]
    attempted = sum(checked.values())
    out.update(
        ops=pairs, busy_s=sum(law_s.values()), lat_ms=lat_ms,
        attempted=attempted, decided=attempted, failed=len(failures),
        failures=failures[:20],
        layers={**{f"laws.{k}_s": v for k, v in law_s.items()},
                **{f"laws.{k}_checked": v for k, v in checked.items()}},
    )
    return out


# ---------------------------------------------------------------- search


def describe(key, ctx, m, a) -> str:
    return f"{key} {', '.join(f'{x}: {t}' for x, t in ctx.items())} |- {m} : {a}"


def run_search(unit, rec):
    t0 = clock()
    from itypes import (SearchBudget, Verdict, check_derivation, derives,
                        infer_types, parse_term, parse_type)

    specs, build_s = build_theories(theory_keys(unit))
    stream = [
        (key, specs[key], parse_ctx(ctx, specs[key], ":"), parse_term(term),
         parse_type(ty, specs[key]), want)
        for key, ctx, term, ty, want in unit["judgments"]
    ]
    infer = [(key, specs[key], parse_term(term), must and parse_type(must))
             for key, term, must in unit["infer"]]
    setup_s = clock() - t0
    out = {"setup_s": setup_s, "build_s": build_s}
    if unit["setup_only"]:
        return out
    if rec.traced:
        rec.install()
    budget = SearchBudget(*unit["budget"])
    lat_ms, failures = [], []
    verdicts = {v: 0 for v in ("yes", "no", "unknown")}
    unknown_s = check_s = 0.0
    nodes = 0

    for key, spec, ctx, m, a, want in stream:
        try:
            (v, d), dt = rec.call("assign.derives", derives, spec, ctx, m, a, budget)
        except Exception as exc:  # a crash is a failed judgment, not a stop
            failures.append(f"{describe(key, ctx, m, a)}: {exc!r}")
            lat_ms.append(0.0)
            continue
        lat_ms.append(dt * 1e3)
        verdicts[v.value] += 1
        if v is Verdict.UNKNOWN:
            unknown_s += dt
        if v is Verdict.YES:
            ok, dt = rec.call("assign.check_derivation", check_derivation, spec, d)
            check_s += dt
            nodes += tracing.tree_nodes(d)
            if not ok:
                failures.append(f"{describe(key, ctx, m, a)}: derivation fails its checker")
        if want is not None and v.value not in (want, "unknown"):
            failures.append(f"{describe(key, ctx, m, a)}: {v.value}, known answer {want}")

    infer_s = 0.0
    for key, spec, m, must in infer:
        label = f"{key} infer {m}"
        found, dt = rec.call("assign.infer_types", infer_types, spec, {}, m,
                             unit["infer_size"], unit["infer_atoms"], budget)
        infer_s += dt
        if must is not None and must not in found:
            failures.append(f"{label}: {must} missing")
        for t in sorted(found, key=str):
            v, d = derives(spec, {}, m, t, budget)
            if v is not Verdict.YES:
                failures.append(f"{label}: {t} inferred but derives says {v.value}")
            elif not check_derivation(spec, d):
                failures.append(f"{label}: {t} derivation fails its checker")

    n = len(stream)
    out.update(
        ops=n, busy_s=sum(lat_ms) / 1e3, lat_ms=lat_ms,
        attempted=n + len(infer), decided=verdicts["yes"] + verdicts["no"],
        decided_of=n, failed=len(failures), failures=failures[:20],
        layers={
            "assign.derives.calls": n,
            "assign.derives.s": sum(lat_ms) / 1e3,
            "assign.yes": verdicts["yes"],
            "assign.no": verdicts["no"],
            "assign.unknown": verdicts["unknown"],
            "assign.unknown_s": unknown_s,
            "assign.check_derivation_s": check_s,
            "assign.derivation_nodes": nodes,
            "assign.infer_types_s": infer_s,
        },
    )
    return out


# ---------------------------------------------------------------- cli


def rebuild_proof(data):
    """A CLI JSON trace as a Proof, so check_proof can judge it."""
    from itypes import Proof, parse_type

    return Proof(data["rule"], parse_type(data["lhs"]), parse_type(data["rhs"]),
                 tuple(rebuild_proof(p) for p in data["premises"]))


def judge_cli(cmd, spec, parsed, rc, stdout, stderr):
    """Why a CLI answer is wrong, or None when it is right."""
    from itypes import check_proof

    if "Traceback" in stderr or rc not in (0, 1, 2, 3):
        return f"exit {rc}: {stderr.strip()[-300:]}"
    if rc == 2:
        return f"error on valid input: {stderr.strip()[-300:]}"
    want = cmd["want"]
    match cmd["cmd"]:
        case "leq":
            payload = json.loads(stdout)
            got = "true" if payload["result"] else "false"
            if got != want or rc != (0 if got == "true" else 1):
                return f"leq answered {got} (exit {rc}), known answer {want}"
            if got == "true":
                proof = rebuild_proof(payload["trace"])
                if (proof.lhs, proof.rhs) != parsed or not check_proof(spec, proof):
                    return "leq trace fails check_proof"
        case "check" | "interp":
            got = stdout.strip()
            if rc != {"yes": 0, "no": 1, "unknown": 3}.get(got):
                return f"verdict {got!r} with exit {rc}"
            if got not in (want, "unknown"):
                return f"verdict {got}, known answer {want}"
        case "classify":
            rows = dict(line.split(": ", 1) for line in stdout.splitlines()
                        if not line.startswith("note: "))
            wrong = {k: rows.get(k) for k, v in want.items() if rows.get(k) != v}
            if wrong:
                return f"classification differs: {wrong}"
    return None


def run_cli(unit, rec):
    t0 = clock()
    from itypes import parse_term, parse_type, print_type

    specs, build_s = build_theories(theory_keys(unit))
    t1 = clock()
    parsed = []
    for cmd in unit["commands"]:
        spec, args = specs[cmd["theory"]], cmd["args"]
        match cmd["cmd"]:
            case "leq":
                parsed.append((parse_type(args[-2], spec), parse_type(args[-1], spec)))
            case "check":
                parsed.append((parse_ctx(args[-3], spec, ":"), parse_term(args[-2]),
                               parse_type(args[-1], spec)))
            case "interp":
                parsed.append((parse_ctx(args[-3], spec, "="), parse_term(args[-2]),
                               parse_type(args[-1], spec)))
            case _:
                parsed.append(None)
    parse_s = clock() - t1
    setup_s = clock() - t0
    out = {"setup_s": setup_s, "build_s": build_s}
    if unit["setup_only"]:
        return out
    t2 = clock()
    for cmd, p in zip(unit["commands"], parsed):
        if cmd["cmd"] == "leq":
            print_type(p[0]), print_type(p[1])
    print_s = clock() - t2

    lat_ms, failures, by_cmd, decided = [], [], {}, 0
    spans = {}
    for i, (cmd, p) in enumerate(zip(unit["commands"], parsed)):
        name, fresh = workloads.THEORIES[cmd["theory"]]
        args = [cmd["cmd"], "--theory", name, "--atoms", str(fresh), *cmd["args"]]
        if rec.traced:
            spans_file = f"{unit['spans']}.{i}"
            argv = [sys.executable, os.path.join(HERE, "tracing.py"), spans_file, *args]
        else:
            argv = [sys.executable, "-m", "itypes.cli", *args]
        t = clock()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"{cmd['cmd']} timed out: {args}")
            continue
        dt = (clock() - t) * 1e3
        lat_ms.append(dt)
        by_cmd.setdefault(cmd["cmd"], []).append(dt)
        decided += proc.returncode in (0, 1)
        try:
            why = judge_cli(cmd, specs[cmd["theory"]], p, proc.returncode,
                            proc.stdout, proc.stderr)
        except (ValueError, KeyError, TypeError) as exc:
            why = f"unreadable output ({exc!r}): {proc.stdout[:300]!r}"
        if why:
            failures.append(f"{cmd['cmd']} {cmd['theory']}: {why}")
        if rec.traced and proc.returncode in (0, 1, 3):
            with open(spans_file + ".json") as f:
                for name, (calls, own) in json.load(f).items():
                    acc = spans.setdefault(name, [0, 0.0])
                    acc[0] += calls
                    acc[1] += own
    n = len(unit["commands"])
    out.update(
        ops=n, busy_s=sum(lat_ms) / 1e3, lat_ms=lat_ms, attempted=n,
        decided=decided, failed=len(failures), failures=failures[:20],
        child_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        by_cmd=by_cmd,
        layers={"syntax.parse_s": parse_s, "syntax.print_s": print_s},
    )
    if rec.traced:
        out["spans"] = spans
    return out


# ---------------------------------------------------------------- main

KINDS = {"certify": run_certify, "search": run_search, "cli": run_cli}


def main():
    unit = json.load(sys.stdin)
    rec = tracing.Recorder(traced=unit["trace"])
    out = KINDS[unit["kind"]](unit, rec)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec.traced and unit["kind"] != "cli":
        rec.dump(unit["spans"])
        out["spans"] = rec.totals()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
