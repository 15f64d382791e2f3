import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import itypes
from itypes import cli
from itypes.cli import build_parser, main
from itypes.theory import BA_RULES, NamedTheory, Rule, make_spec, named_theory, spec_to_json
from test_theory import chain_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- leq


def test_leq_true_exit_zero(capsys):
    code, out, _ = run(capsys, "leq", "--theory", "bcd", "omega", "omega -> omega")
    assert code == 0
    assert out.strip() == "true"


def test_leq_false_exit_one(capsys):
    code, out, _ = run(capsys, "leq", "--theory", "ao", "omega", "omega -> omega")
    assert code == 1
    assert out.strip() == "false"


def test_leq_json_includes_trace(capsys):
    code, out, _ = run(
        capsys, "leq", "--theory", "bcd", "--output", "json", "a & b", "a"
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"] is True
    assert data["trace"]["lhs"] == "a & b"


def test_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "leq", "--theory", "ba", "a", "a ->")
    assert code == 2
    assert "error" in err


def test_deeply_nested_input_exit_two(capsys):
    deep = "(" * 3000 + "a" + ")" * 3000
    code, out, err = run(capsys, "leq", "--theory", "ba", deep, "a")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert "MAX_NESTING" in err
    assert "RecursionError" not in err


def test_deep_leq_text_mode_builds_no_trace(capsys):
    lhs = " & ".join(["a"] + ["b"] * 2999)
    code, out, err = run(capsys, "leq", "--theory", "ba", "--atoms", "2", lhs, "a")
    assert code == 0
    assert out.strip() == "true"
    assert err == ""


def test_deep_leq_json_is_a_resource_limit(capsys):
    # the indenting JSON encoder recurses once per nesting level; a lowered
    # interpreter limit keeps the input small, as the trace prints in
    # quadratic time
    lhs = " & ".join(["a"] + ["b"] * 199)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        code, out, err = run(
            capsys, "leq", "--theory", "ba", "--atoms", "2", "--output", "json", lhs, "a"
        )
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    assert out == ""
    assert "recursion limit" in err
    assert "RecursionError" not in err


def test_unknown_theory_exit_two(capsys):
    code, _, err = run(capsys, "leq", "--theory", "zfc", "a", "a")
    assert code == 2


# ---------------------------------------------------------------- check


def test_check_yes(capsys):
    code, out, _ = run(
        capsys, "check", "--theory", "ba", "", r"\x. x x", "(a->b)&a -> b"
    )
    assert code == 0
    assert out.strip() == "yes"


def test_check_no(capsys):
    code, out, _ = run(capsys, "check", "--theory", "ba", "x:a", "x", "b")
    assert code == 1
    assert out.strip() == "no"


def test_check_unknown_exit_three(capsys):
    delta = r"(\x. x x) (\x. x x)"
    code, out, _ = run(
        capsys,
        "check", "--theory", "ehr", "--budget-size", "3", "--budget-depth", "12",
        "", rf"(\y. \x. x) ({delta})", "a -> a",
    )
    assert code == 3
    assert out.strip() == "unknown"


def test_budget_size_is_accepted_and_ignored(capsys):
    # a dropped abstraction is typed by synthesis, whatever --budget-size says
    argv = ("check", "--theory", "ba", "--atoms", "2", "x: a", r"(\z. x) (\y. y y)", "a")
    outs = set()
    for size in ("1", "6"):
        code, out, _ = run(capsys, *argv, "--budget-size", size, "--output", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    code, _, err = run(capsys, *argv, "--budget-size", "0")
    assert code == 2 and "budget" in err


def test_check_atom_outside_theory_exit_two(capsys):
    code, out, err = run(capsys, "check", "--theory", "ba", "--atoms", "2", "x: z", "x", "z")
    assert code == 2
    assert out == ""
    assert "'z'" in err


def test_check_variable_spine_no(capsys):
    code, out, _ = run(
        capsys, "check", "--theory", "ba", "--atoms", "3", "x: a -> b, y: a", "x y", "c"
    )
    assert code == 1
    assert out.strip() == "no"


@pytest.mark.parametrize("n", [600, 5000])
def test_check_long_variable_spine_no(capsys, n):
    # x x ... x with n applications: x has no arrow head, so the first
    # argument refutes it; nothing may recurse once per application
    spine = " ".join(["x"] * (n + 1))
    code, out, _ = run(capsys, "check", "--theory", "ba", "--atoms", "2", "x: a", spine, "a")
    assert code == 1
    assert out.strip() == "no"


def test_check_long_spine_json(capsys):
    spine = " ".join(["x"] * 5001)
    code, out, _ = run(
        capsys,
        "check", "--theory", "bcd", "--output", "json",
        "x: omega -> omega", spine, "omega -> omega",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "yes"
    assert data["derivation"]["term"] == spine


def test_check_json_derivation_roundtrips(capsys):
    from itypes.assign import check_derivation, derivation_from_json

    code, out, _ = run(
        capsys,
        "check", "--theory", "ba", "--output", "json", "x:a", "x", "a",
    )
    assert code == 0
    data = json.loads(out)
    d = derivation_from_json(data["derivation"])
    assert check_derivation(named_theory(NamedTheory.BA, 3), d)


def test_check_with_context_entries(capsys):
    code, out, _ = run(
        capsys, "check", "--theory", "ba", "x:a->b, y:a", "x y", "b"
    )
    assert code == 0


# ---------------------------------------------------------------- infer / interp


def test_infer_lists_identity_type(capsys):
    code, out, _ = run(
        capsys, "infer", "--theory", "ba", "--atoms", "1", "", r"\x. x", "--size", "3"
    )
    assert code == 0
    assert "a -> a" in out.splitlines()


def test_interp_variable(capsys):
    code, out, _ = run(capsys, "interp", "--theory", "bcd", "x=a", "x", "a")
    assert code == 0
    assert out.strip() == "yes"


def test_interp_bad_env_exit_two(capsys):
    code, _, err = run(capsys, "interp", "--theory", "bcd", "x:a", "x", "a")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "x: a, x: b", "x", "a"),
        ("check", "x: a, y: b, x : a", "x", "a"),
        ("infer", "x: a, x: b", "x"),
        ("interp", "x=a, x=b", "x", "a"),
    ],
    ids=["check", "check-same-type", "infer", "interp"],
)
def test_variable_bound_twice_exit_two(capsys, argv):
    cmd, *rest = argv
    code, out, err = run(capsys, cmd, "--theory", "ba", "--atoms", "2", *rest)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'x' is bound twice" in err


@pytest.mark.parametrize(
    "argv,name",
    [
        (("check", "x y: a", "x", "a"), "x y"),
        (("check", "1x: a", "x", "a"), "1x"),
        (("check", "x: a, _y: a", "x", "a"), "_y"),
        (("check", ": a", "x", "a"), ""),
        (("infer", "x-y: a", "x"), "x-y"),
        (("interp", "x y=a", "x", "a"), "x y"),
        (("interp", "(x)=a", "x", "a"), "(x)"),
    ],
    ids=["check-space", "check-digit", "check-underscore", "check-empty",
         "infer", "interp-space", "interp-parens"],
)
def test_variable_that_is_not_an_identifier_exit_two(capsys, argv, name):
    cmd, *rest = argv
    code, out, err = run(capsys, cmd, "--theory", "ba", "--atoms", "2", *rest)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad ") and f"{name!r} is not a variable name" in err


def test_variable_names_follow_the_identifier_rule(capsys):
    code, out, _ = run(
        capsys, "check", "--theory", "ba", "--atoms", "2", "x_1: a, y2: b, é: a", "x_1", "a"
    )
    assert (code, out.strip()) == (0, "yes")


@pytest.mark.parametrize("atoms", ["-1", "27"])
def test_fresh_atom_count_out_of_range_exit_two(capsys, atoms):
    code, out, err = run(capsys, "leq", "--theory", "ba", "--atoms", atoms, "a", "a")
    assert code == 2
    assert out == ""
    assert "0 to 26" in err and "not in the theory" not in err


@pytest.mark.parametrize(
    "argv",
    [("laws", "--size", "0"), ("laws", "--size", "-1"), ("infer", "", "x", "--size", "-3")],
    ids=["laws-0", "laws-neg", "infer-neg"],
)
def test_size_below_one_exit_two(capsys, argv):
    cmd, *rest = argv
    code, out, err = run(capsys, cmd, "--theory", "ba", "--atoms", "2", *rest)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --size must be at least 1")


# ---------------------------------------------------------------- classify / laws


def test_classify_json_matches_report(capsys):
    code, out, _ = run(
        capsys, "classify", "--theory", "bcd", "--atoms", "2", "--output", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["natural"] is True
    assert data["f_type_theory"] == "no"


def test_classify_text_has_notes(capsys):
    code, out, _ = run(capsys, "classify", "--theory", "ehr", "--atoms", "0")
    assert code == 0
    assert "strict: True" in out
    assert "note:" in out


def test_laws_all_pass(capsys):
    code, out, _ = run(
        capsys, "laws", "--theory", "ba", "--atoms", "2", "--size", "3"
    )
    assert code == 0
    assert "FAIL" not in out


def test_laws_in_a_theory_with_no_types(capsys):
    code, out, _ = run(capsys, "laws", "--theory", "ba", "--atoms", "0", "--size", "2")
    assert code == 0
    assert "FAIL" not in out and "spine-filter: ok (0 checked)" in out


def test_laws_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "laws", "--theory", "ehr", "--atoms", "1", "--size", "3", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert all({"name", "checked", "ok", "failures"} == set(r) for r in data["results"])


# ---------------------------------------------------------------- options

_COMMON = {"--theory", "--atoms", "--output"}
_BUDGET = {"--budget-size", "--budget-depth"}
_READS = {
    "leq": _COMMON,
    "check": _COMMON | _BUDGET,
    "infer": _COMMON | _BUDGET | {"--size"},
    "interp": _COMMON | _BUDGET,
    "classify": _COMMON,
    "laws": _COMMON | {"--size", "--seed"},
}
_POSITIONALS = {
    "leq": ["a", "a"],
    "check": ["", r"\x. x", "a -> a"],
    "infer": ["", r"\x. x"],
    "interp": ["", r"\x. x", "a -> a"],
    "classify": [],
    "laws": [],
}
_VALUES = {"--theory": "ba", "--atoms": "2", "--output": "json",
           "--budget-size": "3", "--budget-depth": "3", "--seed": "5", "--size": "2"}


def test_commands_take_27_options():
    assert sum(map(len, _READS.values())) == 27


@pytest.mark.parametrize("command", sorted(_READS))
@pytest.mark.parametrize("option", sorted(_VALUES))
def test_each_command_takes_only_the_options_it_reads(capsys, command, option):
    value = _VALUES[option]
    argv = [command, *_POSITIONALS[command], option, value]
    if option in _READS[command]:
        args = build_parser().parse_args(argv)
        assert str(getattr(args, option[2:].replace("-", "_"))) == value
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_laws_skip_fun_phi_where_neither_strict_nor_natural(tmp_path, capsys):
    # omega a top type, neither omega-eta nor omega-lazy
    spec = make_spec({"omega", "a"}, BA_RULES | {Rule.OMEGA_TOP})
    path = tmp_path / "omega-top.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    argv = ("laws", "--theory", f"file:{path}", "--size", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "fun-implies-phi: skipped (neither strict nor natural)" in out.splitlines()
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code == 0
    results = json.loads(out)["results"]
    skipped = [r for r in results if "skipped" in r]
    assert [(r["name"], r["skipped"]) for r in skipped] == [
        ("fun-implies-phi", "neither strict nor natural")
    ]


# ---------------------------------------------------------------- theory files


def test_theory_from_file(tmp_path, capsys):
    spec = named_theory(NamedTheory.BCD, 1)
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    code, out, _ = run(capsys, "leq", "--theory", f"file:{path}", "a", "omega")
    assert code == 0


def test_theory_file_search_path(tmp_path, capsys, monkeypatch):
    spec = named_theory(NamedTheory.EHR, 1)
    (tmp_path / "t.json").write_text(json.dumps(spec_to_json(spec)))
    monkeypatch.setenv("ITYPES_THEORY_PATH", str(tmp_path))
    code, out, _ = run(capsys, "leq", "--theory", "file:t.json", "a -> a", "nu")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("classify",),
        ("leq", "a", "a"),
        ("check", "x:a", "x", "a"),
        ("laws", "--size", "1"),
    ],
)
def test_invalid_theory_same_error_everywhere(tmp_path, capsys, argv):
    spec = make_spec({"omega", "a"}, BA_RULES)  # omega without omega-top
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    code, out, err = run(capsys, argv[0], "--theory", f"file:{path}", *argv[1:])
    assert code == 2
    assert (out, err) == ("", "error: invalid theory spec: MissingAssumption1\n")


def test_classify_long_equation_chain(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec_to_json(chain_spec(1500))))
    code, out, err = run(capsys, "classify", "--theory", f"file:{path}")
    assert (code, err) == (0, "")
    assert "strict: True" in out


def test_malformed_theory_file_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"atoms": "ab", "rules": ["arrow-inter", "eta"]}')
    code, out, err = run(capsys, "classify", "--theory", f"file:{path}")
    assert (code, out) == (2, "")
    assert err == "error: theory spec field 'atoms' must be a list of strings\n"


@pytest.mark.parametrize(
    "text, err",
    [
        ('{"atoms": ["a", "b"], "rules": ["arrow-inter", "eta"], '
         '"equation": {"a": "b -> b"}}',
         "error: theory spec has an unknown field 'equation'\n"),
        ('{"atoms": ["a"], "rules": ["arrow-inter", "eta", "omega_top"]}',
         "error: theory spec field 'rules' names an unknown rule 'omega_top'\n"),
    ],
)
def test_misspelt_theory_file_exit_two(tmp_path, capsys, text, err):
    path = tmp_path / "typo.json"
    path.write_text(text)
    assert run(capsys, "classify", "--theory", f"file:{path}") == (2, "", err)


@pytest.mark.parametrize(
    "text, violation",
    [
        ('{"atoms": ["1a"], "rules": ["arrow-inter", "eta"]}', "BadAtomName"),
        ('{"atoms": ["a"], "rules": ["arrow-inter", "eta"], '
         '"equations": {"b": "a -> a"}}', "BadEquationKey"),
        ('{"atoms": ["a"], "rules": ["arrow-inter", "eta"], '
         '"equations": {"a": "a -> a"}}', "CyclicEquations"),
    ],
)
def test_invalid_theory_file_exit_two(tmp_path, capsys, text, violation):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(capsys, "classify", "--theory", f"file:{path}") == (
        2, "", f"error: invalid theory spec: {violation}\n"
    )


def test_special_atom_in_theory_file_exit_two(tmp_path, capsys):
    path = tmp_path / "om.json"
    path.write_text(
        '{"atoms": ["a", "omega"], "omega": false, '
        '"rules": ["arrow-inter", "eta", "omega-top"]}'
    )
    assert run(capsys, "leq", "--theory", f"file:{path}", "a", "omega") == (
        2,
        "",
        "error: theory spec field 'atoms' lists 'omega', "
        "which only the field 'omega' may give\n",
    )


def test_missing_theory_file_exit_two(capsys):
    code, _, err = run(capsys, "leq", "--theory", "file:/nope.json", "a", "a")
    assert code == 2


# ---------------------------------------------------------------- start-up


def _probe(code: str) -> str:
    """The standard output of code run in a fresh interpreter."""
    src = str(Path(itypes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout.strip()


def test_import_loads_no_dataclasses():
    # a one-shot process pays for every module the import pulls in
    probe = "import sys, itypes.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _probe(probe) == "[]"


_LOADED = "print(sorted(m for m in sys.modules if m.startswith('itypes.')))"


def test_import_loads_no_submodule():
    assert _probe(f"import sys, itypes; {_LOADED}") == "[]"


def test_exports_load_their_home_modules_only():
    probe = f"import sys; from itypes import parse_type, named_theory; {_LOADED}"
    assert _probe(probe) == "['itypes.errors', 'itypes.syntax', 'itypes.theory']"


def test_every_export_resolves_to_its_home_object():
    assert set(itypes.__all__) <= set(dir(itypes))
    for name in itypes.__all__:
        home = importlib.import_module(f"itypes.{itypes._HOME[name]}")
        assert getattr(itypes, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        itypes.no_such_name


# ---------------------------------------------------------------- layering


def _loaded_by(code: str) -> set:
    """The itypes submodules, by their short names, that code loads in a
    fresh interpreter."""
    last = _probe(f"import sys\n{code}\n{_LOADED}").splitlines()[-1]
    return {m.removeprefix("itypes.") for m in ast.literal_eval(last)}


def _command(*argv) -> str:
    # as the console script runs it
    return f"from itypes.cli import main\nmain({list(argv)!r})"


@pytest.mark.parametrize("output", ["text", "json"])
def test_leq_loads_only_the_decider(output):
    code = _command("leq", "--theory", "ba", "--atoms", "2", "--output", output, "a & b", "a")
    assert _loaded_by(code) == {"cli", "errors", "syntax", "theory", "subtype"}


def test_classify_loads_neither_the_decider_nor_the_search():
    loaded = _loaded_by(_command("classify", "--theory", "ao"))
    assert "classify" in loaded
    assert not loaded & {"subtype", "assign", "filters"}


def test_check_loads_no_filters_classification_or_laws():
    loaded = _loaded_by(_command("check", "--theory", "ba", "--atoms", "2", "x:a", "x", "a"))
    assert "assign" in loaded
    assert not loaded & {"filters", "classify", "laws"}


def test_the_preorder_oracle_trace_and_filter_laws_load_no_search():
    code = (
        "from itypes import laws\n"
        "from itypes.theory import NamedTheory, named_theory\n"
        "spec, atoms = named_theory(NamedTheory.BCD, 2), frozenset('ab')\n"
        "for law in (laws.preorder_laws, laws.oracle_agreement_law,\n"
        "            laws.trace_soundness_law, laws.filter_laws):\n"
        "    law(spec, atoms, 2)"
    )
    loaded = _loaded_by(code)
    assert "laws" in loaded
    assert not loaded & {"assign", "classify", "search_laws"}


def test_commands_call_the_names_set_on_the_module(monkeypatch, capsys):
    # perfbench/tracing.py times a CLI run by wrapping these names
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cli, name, wrapper)

    spy("leq_trace")
    spy("derives")
    assert run(capsys, "leq", "--theory", "bcd", "--output", "json", "a & b", "a")[0] == 0
    assert run(capsys, "check", "--theory", "ba", "--atoms", "2", "x:a", "x", "a")[0] == 0
    assert calls == ["leq_trace", "derives"]
