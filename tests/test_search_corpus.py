"""The benchmark's search corpus keeps every verdict the search had settled.

The ``search`` workload of ``perfbench/workloads.py`` runs 2,000 seeded
judgments plus 6 with known answers through ``derives`` at budget (4, 16).
The module is loaded by path (it imports only the standard library).  Of
those 2,006 judgments, 416 were YES and 1,437 NO before head redexes were
contracted; the other 153, listed below by index, were UNKNOWN.  A change
may settle an UNKNOWN, but every settled verdict must stay as it was: the
digest pins the sorted ``index verdict`` lines of the settled ones.  A
second digest pins the 417 derivations found before dropped arguments were
typed by synthesis, node for node, as their JSON; the judgments that
synthesis settled since are listed with their verdicts in ``SYNTHESIZED``.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from itypes import (
    NamedTheory,
    SearchBudget,
    Verdict,
    check_derivation,
    derivation_to_json,
    derives,
    named_theory,
    parse_term,
    parse_type,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

SETTLED_DIGEST = "78ccba1c8cb13f97bcc9611b1d3fe3f6de378787bebb544066b33aa31a6ac28d"
DERIVATION_DIGEST = "be106d069aaf3657f2177bb937003572b1d6c0ea036e258aacbbba17a8257d8f"
DERIVATIONS = 417
WERE_UNKNOWN = frozenset((
    4, 5, 49, 57, 65, 84, 96, 97, 111, 113, 123, 125, 136, 138, 158, 173, 190,
    195, 200, 209, 215, 234, 237, 249, 259, 266, 274, 276, 281, 295, 323, 324,
    327, 344, 351, 358, 392, 419, 447, 451, 476, 480, 503, 525, 526, 530, 533,
    545, 546, 549, 562, 573, 580, 585, 587, 597, 621, 636, 649, 655, 676, 700,
    701, 710, 711, 722, 723, 774, 803, 822, 838, 857, 874, 875, 880, 907, 936,
    942, 945, 964, 980, 991, 1003, 1023, 1030, 1049, 1103, 1145, 1158, 1189,
    1233, 1238, 1240, 1251, 1295, 1299, 1321, 1344, 1377, 1379, 1387, 1404,
    1426, 1470, 1500, 1506, 1518, 1527, 1530, 1571, 1577, 1588, 1598, 1608,
    1613, 1624, 1626, 1630, 1678, 1687, 1689, 1690, 1694, 1713, 1716, 1718,
    1724, 1740, 1752, 1775, 1777, 1779, 1782, 1791, 1816, 1817, 1821, 1823,
    1838, 1845, 1878, 1880, 1884, 1888, 1895, 1903, 1909, 1910, 1941, 1950,
    1961, 1998, 2003,
))
# settled by typing a dropped argument by synthesis: 907 gets its type, and
# 1624 and 1687 drop a variable that the context does not bind
SYNTHESIZED = {907: "yes", 1624: "no", 1687: "no"}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _ctx(text, spec):
    out = {}
    for entry in filter(None, (e.strip() for e in text.split(","))):
        var, ty = entry.split(":", 1)
        out[var.strip()] = parse_type(ty, spec)
    return out


def test_search_corpus_keeps_settled_verdicts():
    wl = _workloads()
    specs = {
        key: named_theory(NamedTheory(name), fresh)
        for key, (name, fresh) in wl.THEORIES.items()
    }
    judgments = list(wl.search_corpus(2000)) + list(wl.KNOWN_JUDGMENTS)
    assert len(judgments) == 2006
    budget = SearchBudget(*wl.SEARCH_BUDGET)
    verdicts, bad = [], []
    derivations = hashlib.sha256()
    found = 0
    for i, (key, ctx, term, ty, want) in enumerate(judgments):
        spec = specs[key]
        v, d = derives(spec, _ctx(ctx, spec), parse_term(term), parse_type(ty, spec), budget)
        verdicts.append(v.value)
        if d is not None and i not in SYNTHESIZED:
            found += 1
            line = f"{i} " + json.dumps(derivation_to_json(d), sort_keys=True) + "\n"
            derivations.update(line.encode())
        if v is Verdict.YES and not check_derivation(spec, d):
            bad.append((i, "derivation fails its checker"))
        if want is not None and v.value not in (want, "unknown"):
            bad.append((i, f"{v.value}, known answer {want}"))
    assert not bad
    settled = "\n".join(
        f"{i} {v}" for i, v in enumerate(verdicts) if i not in WERE_UNKNOWN
    )
    assert hashlib.sha256(settled.encode()).hexdigest() == SETTLED_DIGEST
    assert found == DERIVATIONS
    assert derivations.hexdigest() == DERIVATION_DIGEST
    assert {i: verdicts[i] for i in SYNTHESIZED} == SYNTHESIZED
    # contraction settles all but a handful: decided share at least 0.99
    assert verdicts.count("unknown") <= 20
