"""What the benchmark uses of the library must exist.

``perfbench/tracing.py`` replaces names one itypes module imports from
another by timing wrappers, and a traced run stops when one is missing.
This test reads its ``WRAP_TARGETS`` (the module imports only the standard
library) so that a refactor dropping such a name fails here first.  It
also builds the search budget and the CLI flags that
``perfbench/workloads.py`` passes.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from itypes import SearchBudget
from itypes.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _wrap_targets():
    return _load("tracing").WRAP_TARGETS


def test_every_wrap_target_resolves():
    targets = _wrap_targets()
    assert targets
    missing = [
        f"{module}.{name}"
        for module, name, _ in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert not missing


def test_benchmark_budget_and_flags_are_accepted():
    workloads = _load("workloads")
    budget = SearchBudget(*workloads.SEARCH_BUDGET)
    assert budget.max_depth == workloads.SEARCH_BUDGET[1]
    args = build_parser().parse_args(["check", *workloads.BUDGET_FLAGS, "", "x", "a"])
    assert (args.budget_size, args.budget_depth) == tuple(workloads.SEARCH_BUDGET)
