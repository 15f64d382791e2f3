"""Command line front end.

Exit codes: 0 for yes/true, 1 for no/false, 2 for errors, 3 for unknown.
The distinction between 1 and 3 matters: 1 is a refutation, 3 only means the
search budget ran out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import _lazy
from .errors import ItypesError, ResourceLimit, Verdict
from .syntax import Var, parse_term, parse_type, print_type
from .theory import NamedTheory, load_spec, named_theory

_VERDICT_EXIT = {Verdict.YES: 0, Verdict.NO: 1, Verdict.UNKNOWN: 3}

# The names that the commands load a module for, by that module.  Each
# loads on first use (PEP 562), so a command loads only the modules it
# runs: ``itypes leq`` loads subtype and never the search.  The commands
# call them as attributes of this module (``_cli.leq``), so that a wrapper
# set on the module, as a traced benchmark run sets, is what runs.
__getattr__ = _lazy(globals(), {
    "subtype": ("leq", "leq_trace", "proof_to_json"),
    "assign": ("SearchBudget", "derivation_to_json", "derives", "infer_types"),
    "filters": ("FiniteFilter", "interpret_member"),
    "classify": ("adequacy_report",),
    "laws": ("run_all",),
})
_cli = sys.modules[__name__]


def _resolve_theory(name: str, extra_atoms: int):
    if name.startswith("file:"):
        path = name[5:]
        if not os.path.exists(path):
            search = os.environ.get("ITYPES_THEORY_PATH")
            if search:
                for d in search.split(os.pathsep):
                    cand = os.path.join(d, path)
                    if os.path.exists(cand):
                        path = cand
                        break
        return load_spec(path)
    return named_theory(NamedTheory(name.lower()), extra_atoms)


def _parse_bindings(spec, text: str, sep: str, what: str) -> dict:
    """The comma-separated ``var<sep>type`` entries of text; a variable that
    is not an identifier, or is bound twice, is an error."""
    out = {}
    for entry in filter(None, (e.strip() for e in text.split(","))):
        if sep not in entry:
            raise ItypesError(f"bad {what} entry {entry!r}, expected var{sep}type")
        x, t = entry.split(sep, 1)
        x = x.strip()
        if not _is_variable(x):
            raise ItypesError(f"bad {what} entry {entry!r}: {x!r} is not a variable name")
        if x in out:
            raise ItypesError(f"variable {x!r} is bound twice in the {what}")
        out[x] = parse_type(t, spec)
    return out


def _is_variable(x: str) -> bool:
    """Whether x is an identifier, by the term parser's own rule."""
    try:
        return parse_term(x) is Var(x)
    except ItypesError:
        return False


def _size(args) -> int:
    if args.size < 1:
        raise ItypesError(f"--size must be at least 1, not {args.size}")
    return args.size


def _emit(args, text_line: str, payload):
    """Print text_line, or with ``--output json`` the JSON of payload(),
    which text mode never calls."""
    if args.output != "json":
        print(text_line)
        return
    try:
        out = json.dumps(payload(), indent=2)
    except RecursionError:
        # the indenting encoder recurses once per nesting level
        raise ResourceLimit(
            "JSON output nested deeper than the interpreter's recursion "
            f"limit ({sys.getrecursionlimit()})"
        ) from None
    print(out)


def _cmd_leq(args, spec, budget) -> int:
    a = parse_type(args.lhs, spec)
    b = parse_type(args.rhs, spec)
    if args.output == "json":
        trace = _cli.leq_trace(spec, a, b)
        ok = trace is not None
    else:  # text mode only decides
        trace, ok = None, _cli.leq(spec, a, b)

    def payload():
        out = {"result": ok}
        if trace is not None:
            out["trace"] = _cli.proof_to_json(trace)
        return out

    _emit(args, "true" if ok else "false", payload)
    return 0 if ok else 1


def _cmd_check(args, spec, budget) -> int:
    ctx = _parse_bindings(spec, args.ctx, ":", "context")
    m = parse_term(args.term)
    a = parse_type(args.type, spec)
    v, d = _cli.derives(spec, ctx, m, a, budget)

    def payload():
        out = {"verdict": v.value}
        if d is not None:
            out["derivation"] = _cli.derivation_to_json(d)
        return out

    _emit(args, v.value, payload)
    return _VERDICT_EXIT[v]


def _cmd_infer(args, spec, budget) -> int:
    ctx = _parse_bindings(spec, args.ctx, ":", "context")
    m = parse_term(args.term)
    found = sorted(
        _cli.infer_types(spec, ctx, m, _size(args), spec.atoms, budget),
        key=print_type,
    )
    lines = [print_type(t) for t in found]
    _emit(args, "\n".join(lines), lambda: {"types": lines})
    return 0


def _cmd_interp(args, spec, budget) -> int:
    env = {
        x: _cli.FiniteFilter(t)
        for x, t in _parse_bindings(spec, args.env, "=", "env").items()
    }
    m = parse_term(args.term)
    a = parse_type(args.type, spec)
    v = _cli.interpret_member(spec, m, env, a, budget)
    _emit(args, v.value, lambda: {"verdict": v.value})
    return _VERDICT_EXIT[v]


def _cmd_classify(args, spec, budget) -> int:
    report = _cli.adequacy_report(spec)
    payload = report.to_json()
    lines = [f"{k}: {v}" for k, v in payload.items() if k != "notes"]
    lines += [f"note: {n}" for n in report.notes]
    _emit(args, "\n".join(lines), lambda: payload)
    return 0


def _cmd_laws(args, spec, budget) -> int:
    atoms = frozenset(spec.plain_atoms[:2])
    results = _cli.run_all(spec, atoms, _size(args), args.seed)
    # a skipped law checks nothing, so only the applicable ones can fail
    failed = [r for r in results if not r.ok]
    lines = [
        f"{r.name}: skipped ({r.skipped})" if r.skipped is not None
        else f"{r.name}: {'ok' if r.ok else 'FAIL'} ({r.checked} checked)"
        for r in results
    ]
    _emit(args, "\n".join(lines), lambda: {"results": [r.to_json() for r in results]})
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    # each command takes only the options it reads: all take the theory and
    # output options, and only the commands that search take a budget
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--theory", default="bcd", help="ba|ehr|ao|bcd or file:PATH")
    common.add_argument("--atoms", type=int, default=3, help="fresh atom count")
    common.add_argument("--output", choices=("text", "json"), default="text")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument(
        "--budget-size", type=int, default=6,
        help="ignored; accepted for compatibility",
    )
    search.add_argument(
        "--budget-depth", type=int, default=64,
        help="deepest nesting of search steps; each contraction takes one",
    )

    parser = argparse.ArgumentParser(
        prog="itypes",
        description="Intersection-type theories: subtyping, typing, filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def sub_parser(name, help, *parents):
        return sub.add_parser(name, help=help, parents=[common, *parents])

    p = sub_parser("leq", "decide a subtyping judgment")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(func=_cmd_leq)

    p = sub_parser("check", "search for a typing derivation", search)
    p.add_argument("ctx", help="comma-separated var:type entries (may be empty)")
    p.add_argument("term")
    p.add_argument("type")
    p.set_defaults(func=_cmd_check)

    p = sub_parser("infer", "enumerate derivable types up to a size", search)
    p.add_argument("ctx")
    p.add_argument("term")
    p.add_argument("--size", type=int, default=4)
    p.set_defaults(func=_cmd_infer)

    p = sub_parser("interp", "filter-structure interpretation membership", search)
    p.add_argument("env", help="comma-separated var=type entries (may be empty)")
    p.add_argument("term")
    p.add_argument("type")
    p.set_defaults(func=_cmd_interp)

    p = sub_parser("classify", "adequacy report for the theory")
    p.set_defaults(func=_cmd_classify)

    p = sub_parser("laws", "run the property-law suites")
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_laws)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _resolve_theory(args.theory, args.atoms)
        budget = (
            _cli.SearchBudget(args.budget_size, args.budget_depth)
            if "budget_depth" in args else None
        )
        return args.func(args, spec, budget)
    except (ItypesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Any other failure, such as RecursionError on a deeply nested
        # input, is an error too: exit 1 must only ever mean "false".
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
