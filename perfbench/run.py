"""The itypes benchmark: seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload certify|search|cli --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it uses the itypes sources under
``src/`` and writes only under ``.perfbench/``.  Each unit of the workload
(see workloads.py) runs in a fresh worker process, one at a time, until
``--seconds`` have passed and the workload's minimum number of units has
run.  Every output is checked.  The run prints each metric as
``name value unit`` and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
each unit runs twice, plain and traced, in alternating order, and the
metrics are the per-layer ones: bench-side timers and counts from the plain
run, span self times and calls from the traced run, and the tracing
overhead from the difference between the two.  A layer that a workload does
not exercise reads 0 there.

The exit code is 0 when every output was correct, 1 when some was not, and
2 when the run could not be made (no itypes sources, a worker that crashed,
a wrap target that no longer exists); then no JSON line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 5  # set-up only workers per run, besides the units' own
CLI_PROBES = 5  # bare-interpreter and import-only processes, traced runs
WORKER_TIMEOUT_S = 150
HARD_STOP_S = 100  # start no unit after this; keeps a run under 180 s

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

SPAN_METRICS = [
    ("subtype.leq", ("calls", "self_s")),
    ("subtype.leq_trace", ("self_s",)),
    ("subtype.check_proof", ("self_s",)),
    ("subtype.oracle_relation", ("self_s",)),
    ("filters.apply", ("calls", "self_s")),
    ("filters.member", ("calls", "self_s")),
    ("filters.filter_leq", ("calls", "self_s")),
    ("subtype.normalize", ("calls", "self_s")),
    ("subtype.canonical", ("calls", "self_s")),
    ("subtype.canonical_types", ("calls", "self_s")),
]
LAW_NAMES = ("preorder", "oracle_agreement", "trace_soundness", "filter")
UNIT_LAYERS = (
    [(f"laws.{law}_s", "s") for law in LAW_NAMES]
    + [(f"laws.{law}_checked", "count") for law in LAW_NAMES]
    + [("assign.derives.calls", "count"), ("assign.derives.s", "s"),
       ("assign.yes", "count"), ("assign.no", "count"),
       ("assign.unknown", "count"), ("assign.unknown_s", "s"),
       ("assign.check_derivation_s", "s"),
       ("assign.derivation_nodes", "count"), ("assign.infer_types_s", "s"),
       ("syntax.parse_s", "s"), ("syntax.print_s", "s")]
)
CLI_COMMANDS = ("leq", "check", "interp", "classify")
PER_LAYER = (
    UNIT_LAYERS
    + [(f"{span}.{part}", "count" if part == "calls" else "s")
       for span, parts in SPAN_METRICS for part in parts]
    + [("subtype.proof_nodes", "count")]
    + [("cli.python_start_ms", "ms"), ("cli.import_ms", "ms")]
    + [(f"cli.{c}_ms", "ms") for c in CLI_COMMANDS]
    + [("theory.build_s", "s"), ("trace.overhead_share", "ratio"),
       ("failed_share", "ratio")]
)


class BenchError(RuntimeError):
    """The run cannot be made; no result is printed."""


def spawn(argv, stdin_text=None, timeout=WORKER_TIMEOUT_S):
    """Run a child in its own process group and wait for it; on a timeout or
    an interrupt, kill the whole group, so no grandchild outlives the run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(stdin_text, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1:3]} ran over {timeout} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, out, err


def run_unit(unit: dict, *, trace=False, setup_only=False, spans=None) -> dict:
    payload = dict(unit, trace=trace, setup_only=setup_only, spans=spans)
    rc, out, err = spawn([sys.executable, WORKER], json.dumps(payload))
    if rc != 0 or not out.strip():
        raise BenchError(f"worker for {unit['kind']} failed (exit {rc}):\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def probe_ms(code: str) -> float:
    t0 = time.perf_counter()
    rc, _, err = spawn([sys.executable, "-c", code])
    if rc != 0:
        raise BenchError(f"python -c {code!r} failed: {err[-500:]}")
    return (time.perf_counter() - t0) * 1e3


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def spans_file(workload, k: int) -> str:
    return os.path.join(OUT, f"spans-{workload.name}-{k}.bin")


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run units until ``seconds`` have passed (and, untraced, until the
    workload's minimum count), then summarise them."""
    os.makedirs(OUT, exist_ok=True)
    start = time.perf_counter()
    first = workload.unit(seed, 0)
    run_unit(first, setup_only=True)  # warm-up: the bytecode caches get written
    setups = [run_unit(first, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    k = 0
    while True:
        unit = workload.unit(seed, k)
        if trace and k % 2:  # alternate which side runs first
            traced.append(run_unit(unit, trace=True, spans=spans_file(workload, k)))
        plain.append(run_unit(unit))
        if trace and not k % 2:
            traced.append(run_unit(unit, trace=True, spans=spans_file(workload, k)))
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if elapsed >= seconds and (trace or k >= workload.min_units):
            break
    setups += [u["setup_s"] for u in plain]
    return summarise(workload, plain, traced, setups, trace)


def summarise(workload, plain, traced, setups, trace) -> dict:
    units = plain + traced
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    lat = [x for u in plain for x in u["lat_ms"]]
    head = plain[: workload.min_units]
    e2e = {
        "ops_per_s": sum(u["ops"] for u in plain) / sum(u["busy_s"] for u in plain),
        "lat_p50_ms": statistics.median(lat),
        "lat_tail_ms": percentile(lat, workload.tail_pct),
        "decided_share": sum(u["decided"] for u in head)
        / sum(u.get("decided_of", u["attempted"]) for u in head),
        "peak_rss_mb": statistics.median(
            u.get("child_rss_mb", u["rss_mb"]) for u in plain),
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"units {len(plain)}{' plain + traced' if trace else ''}; "
        f"lat_tail_ms is p{workload.tail_pct:g} of {len(lat)} samples "
        f"({len(lat) - math.ceil(workload.tail_pct / 100 * len(lat))} beyond it)",
        f"setup_s is the median of {len(setups)} set-ups",
    ]
    notes += [f"FAILED {f}" for u in units for f in u["failures"]]
    layers = per_layer(plain, traced, attempted, failed) if trace else {}
    return {"e2e": e2e, "layers": layers, "attempted": attempted,
            "failed": failed, "notes": notes}


def per_layer(plain, traced, attempted, failed) -> dict:
    """Per-unit means of the plain run's timers and the traced run's spans."""
    n = len(plain)
    out = {name: sum(u["layers"].get(name, 0) for u in plain) / n
           for name, _ in UNIT_LAYERS}
    for span, parts in SPAN_METRICS:
        for i, part in enumerate(("calls", "self_s")):
            if part in parts:
                out[f"{span}.{part}"] = sum(
                    u["spans"].get(span, [0, 0.0])[i] for u in traced) / n
    out["subtype.proof_nodes"] = sum(
        u["spans"].get("subtype.proof_nodes", [0])[0] for u in traced) / n
    by_cmd = {c: [x for u in plain for x in u.get("by_cmd", {}).get(c, [])]
              for c in CLI_COMMANDS}
    for c, samples in by_cmd.items():
        out[f"cli.{c}_ms"] = statistics.median(samples) if samples else 0
    if any(by_cmd.values()):
        out["cli.python_start_ms"] = statistics.median(
            probe_ms("pass") for _ in range(CLI_PROBES))
        out["cli.import_ms"] = statistics.median(
            probe_ms("import itypes") for _ in range(CLI_PROBES))
    else:
        out["cli.python_start_ms"] = out["cli.import_ms"] = 0
    out["theory.build_s"] = statistics.median(u["build_s"] for u in plain)
    out["trace.overhead_share"] = (
        sum(u["busy_s"] for u in traced) / sum(u["busy_s"] for u in plain) - 1)
    out["failed_share"] = failed / attempted
    return out


def report(workload, res, trace) -> dict:
    """Print every metric with its unit, then the JSON result line."""
    chosen = PER_LAYER if trace else END_TO_END
    values = res["layers"] if trace else res["e2e"]
    lines = [(name, res["e2e"][name], unit) for name, unit in END_TO_END]
    lines += [(name, values[name], unit) for name, unit in PER_LAYER if trace]
    if not trace:
        lines.append(("failed_share", res["failed"] / res["attempted"], "ratio"))
    for name, value, unit in lines:
        print(f"{workload.name} {name} {value:.6g} {unit}")
    print(f"# {res['failed']} failed of {res['attempted']} attempted")
    for note in res["notes"]:
        print(f"# {note}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in chosen},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "itypes", "__init__.py")):
        print(f"error: no itypes sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        res = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report(workload, res, bool(args.trace))["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
