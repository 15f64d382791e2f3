"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric prints by name with its unit, that a known
answer with the wrong expected verdict is counted in failed_share, and that
a wrap target that no longer exists is an error rather than a zero.
"""

import dataclasses
import json
import os
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

TINY = {
    "certify": dataclasses.replace(workloads.WORKLOADS["certify"], size=3,
                                   min_units=1),
    "search": dataclasses.replace(workloads.WORKLOADS["search"], corpus_size=30,
                                  min_units=1, tail_pct=50.0),
    "cli": dataclasses.replace(workloads.WORKLOADS["cli"], min_units=1,
                               leq_pairs=1, tail_pct=50.0),
}


def printed(capsys, workload, res, trace):
    result = run.report(workload, res, trace)
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    return lines, result


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(name, trace, capsys):
    workload = TINY[name]
    res = run.measure(workload, seed=3, seconds=0, trace=trace)
    lines, result = printed(capsys, workload, res, trace)
    chosen = run.PER_LAYER if trace else run.END_TO_END
    for metric, unit in chosen:
        assert any(line.startswith(f"{name} {metric} ") and line.endswith(f" {unit}")
                   for line in lines), metric
        assert result["metrics"][metric]["unit"] == unit
    assert set(result["metrics"]) == {m for m, _ in chosen}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def flip(answer):
    return {"yes": "no", "no": "yes"}[answer]


def test_wrong_known_answer_counts_as_failed(monkeypatch, capsys):
    golden = workloads.KNOWN_JUDGMENTS[0]  # a YES that the search finds
    monkeypatch.setattr(workloads, "KNOWN_JUDGMENTS",
                        [golden[:4] + (flip(golden[4]),)])
    res = run.measure(TINY["search"], seed=3, seconds=0, trace=False)
    assert res["failed"] == 1
    assert any("known answer no" in note for note in res["notes"])
    _, result = printed(capsys, TINY["search"], res, False)
    assert not result["correct"] and result["failed"] == 1


def test_wrong_cli_answer_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "KNOWN_INTERP",
                        [row[:4] + (flip(row[4]),) for row in workloads.KNOWN_INTERP
                         if row[4] == "yes"])
    res = run.measure(TINY["cli"], seed=3, seconds=0, trace=False)
    assert res["failed"] == 1
    assert any("interp" in note and "known answer" in note for note in res["notes"])


def test_missing_wrap_target_is_an_error():
    rec = tracing.Recorder(traced=True)
    with pytest.raises(tracing.MissingWrapTarget):
        rec.install([("itypes.subtype", "no_such_function", "subtype.none")])
