"""The names the traced benchmark wraps must exist.

``perfbench/tracing.py`` replaces names one itypes module imports from
another by timing wrappers, and a traced run stops when one is missing.
This test reads its ``WRAP_TARGETS`` (the module imports only the standard
library) so that a refactor dropping such a name fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrap_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_TARGETS


def test_every_wrap_target_resolves():
    targets = _wrap_targets()
    assert targets
    missing = [
        f"{module}.{name}"
        for module, name, _ in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert not missing
