import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, strategies as st

from itypes import syntax
from itypes.errors import ParseError, UnknownAtomError
from itypes.syntax import (
    MAX_NESTING,
    App,
    Arrow,
    Atom,
    Inter,
    Lam,
    Var,
    alpha_eq,
    contract_head,
    free_vars,
    parse_term,
    parse_type,
    print_term,
    print_type,
    substitute,
    type_atoms,
)
from itypes.theory import BA_RULES, NamedTheory, make_spec, named_theory
from test_search_corpus import _workloads

# ---------------------------------------------------------------- nodes
#
# Types and terms share one representation, so each test below takes both.

_SOURCES = [
    (parse_type, "a"),
    (parse_type, "a -> b"),
    (parse_type, "(a -> b) & a -> b & c"),
    (parse_term, "x"),
    (parse_term, r"\x. x y"),
    (parse_term, r"(\x. x x) (\y. \z. y z)"),
]


@pytest.mark.parametrize("parse,src", _SOURCES, ids=[src for _, src in _SOURCES])
def test_types_are_interned(parse, src):
    t = parse(src)
    assert parse(src) is t
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


def test_unreferenced_types_are_freed():
    for parse, src in ((parse_type, "freed_a -> freed_b"), (parse_term, r"\freed_x. freed_y")):
        t = parse(src)
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None


def test_types_are_immutable():
    t = parse_type("a -> b")
    with pytest.raises(AttributeError):
        t.dom = Atom("b")
    with pytest.raises(AttributeError):
        del t.cod
    assert t is Arrow(Atom("a"), Atom("b"))
    m = parse_term(r"\x. x y")
    with pytest.raises(AttributeError):
        m.binder = "y"
    with pytest.raises(AttributeError):
        del m.body.fun
    assert m is Lam(binder="x", body=App(fun=Var("x"), arg=Var("y")))
    assert hash(m) == hash(Lam("x", App(Var("x"), Var("y"))))


# ---------------------------------------------------------------- types


@pytest.mark.parametrize(
    "src,expected",
    [
        ("a", Atom("a")),
        ("a -> b", Arrow(Atom("a"), Atom("b"))),
        ("a & b", Inter(Atom("a"), Atom("b"))),
        # & binds tighter than ->
        ("a & b -> c", Arrow(Inter(Atom("a"), Atom("b")), Atom("c"))),
        # -> associates right
        ("a -> b -> c", Arrow(Atom("a"), Arrow(Atom("b"), Atom("c")))),
        # & associates left
        ("a & b & c", Inter(Inter(Atom("a"), Atom("b")), Atom("c"))),
        ("(a -> b) & a -> b", Arrow(Inter(Arrow(Atom("a"), Atom("b")), Atom("a")), Atom("b"))),
        ("omega -> omega", Arrow(Atom("omega"), Atom("omega"))),
    ],
)
def test_parse_type(src, expected):
    assert parse_type(src) == expected


def test_parse_type_rejects_garbage():
    with pytest.raises(ParseError):
        parse_type("a ->")
    with pytest.raises(ParseError):
        parse_type("(a -> b")
    with pytest.raises(ParseError):
        parse_type("a b")


@pytest.mark.parametrize(
    "parse,nest",
    [
        (parse_type, lambda n: "(" * n + "a" + ")" * n),
        (parse_type, lambda n: "a -> " * n + "a"),
        (parse_term, lambda n: "(" * n + "x" + ")" * n),
        (parse_term, lambda n: "\\x. " * n + "x"),
    ],
)
def test_nesting_beyond_limit_is_a_parse_error(parse, nest):
    parse(nest(MAX_NESTING))
    with pytest.raises(ParseError, match="MAX_NESTING"):
        parse(nest(MAX_NESTING + 1))
    with pytest.raises(ParseError, match="MAX_NESTING"):
        parse(nest(3000))


# The parser's contract: the tree of each input, or its error's text,
# offset and expected token.  A bad character anywhere in the input is
# reported before any error of the grammar.
_CONTRACT = [
    (parse_type, "a²", Atom("a²")),
    (parse_type, "é -> ß", Arrow(Atom("é"), Atom("ß"))),
    (parse_type, " a_1\t->\n(b) ", Arrow(Atom("a_1"), Atom("b"))),
    (parse_type, "a & (b -> c) & d -> e",
     Arrow(Inter(Inter(Atom("a"), Arrow(Atom("b"), Atom("c"))), Atom("d")), Atom("e"))),
    (parse_type, "(a -> b) -> (c)", Arrow(Arrow(Atom("a"), Atom("b")), Atom("c"))),
    (parse_term, r"\x.\y.x", Lam("x", Lam("y", Var("x")))),
    (parse_term, r"f (\x. x) y", App(App(Var("f"), Lam("x", Var("x"))), Var("y"))),
    (parse_term, r"(\x. x y) z", App(Lam("x", App(Var("x"), Var("y"))), Var("z"))),
    (parse_term, r"x (y z) (\w. w)",
     App(App(Var("x"), App(Var("y"), Var("z"))), Lam("w", Var("w")))),
    (parse_type, "a ->", ("at offset 4: unexpected 'end of input' (expected type)", 4, "type")),
    (parse_type, "(a -> b", ("at offset 7: unexpected 'end of input' (expected ))", 7, ")")),
    (parse_type, "a b", ("at offset 2: unexpected 'b' (expected end of input)", 2, "end of input")),
    (parse_type, "a - b", ("at offset 2: unexpected character '-'", 2, None)),
    (parse_type, ")", ("at offset 0: unexpected ')' (expected type)", 0, "type")),
    (parse_type, "", ("at offset 0: unexpected 'end of input' (expected type)", 0, "type")),
    (parse_type, "a)", ("at offset 1: unexpected ')' (expected end of input)", 1, "end of input")),
    (parse_type, "(a b)", ("at offset 3: unexpected 'b' (expected ))", 3, ")")),
    (parse_type, "()", ("at offset 1: unexpected ')' (expected type)", 1, "type")),
    (parse_type, "a -> -> b", ("at offset 5: unexpected '->' (expected type)", 5, "type")),
    (parse_type, "a & & b", ("at offset 4: unexpected '&' (expected type)", 4, "type")),
    (parse_type, r"a -> \x", ("at offset 5: unexpected '\\\\' (expected type)", 5, "type")),
    (parse_type, "²a", ("at offset 0: unexpected character '²'", 0, None)),
    (parse_type, "_a", ("at offset 0: unexpected character '_'", 0, None)),
    (parse_type, "a -> 1", ("at offset 5: unexpected character '1'", 5, None)),
    (parse_type, ") a -", ("at offset 4: unexpected character '-'", 4, None)),
    (parse_type, "a > b", ("at offset 2: unexpected character '>'", 2, None)),
    (parse_term, r"\x x", ("at offset 3: unexpected 'x' (expected .)", 3, ".")),
    (parse_term, r"\. x", ("at offset 1: unexpected '.' (expected ident)", 1, "ident")),
    (parse_term, "\\", ("at offset 1: unexpected 'end of input' (expected ident)", 1, "ident")),
    (parse_term, r"f \x. x", ("at offset 2: unexpected '\\\\' (expected end of input)", 2, "end of input")),
    (parse_term, "\\x.", ("at offset 3: unexpected 'end of input' (expected term)", 3, "term")),
    (parse_term, "x (y", ("at offset 4: unexpected 'end of input' (expected ))", 4, ")")),
    (parse_term, "", ("at offset 0: unexpected 'end of input' (expected term)", 0, "term")),
    (parse_term, ")", ("at offset 0: unexpected ')' (expected term)", 0, "term")),
    (parse_term, "x y)", ("at offset 3: unexpected ')' (expected end of input)", 3, "end of input")),
    (parse_term, "x -> y", ("at offset 2: unexpected '->' (expected end of input)", 2, "end of input")),
    (parse_term, r"(\x. x .)", ("at offset 7: unexpected '.' (expected ))", 7, ")")),
    (parse_term, r"\x. (", ("at offset 5: unexpected 'end of input' (expected term)", 5, "term")),
    (parse_term, r"x \1. y", ("at offset 3: unexpected character '1'", 3, None)),
]


@pytest.mark.parametrize(
    "parse,src,want", _CONTRACT, ids=[f"{p.__name__}:{s!r}" for p, s, _ in _CONTRACT]
)
def test_parser_contract(parse, src, want):
    if not isinstance(want, tuple):
        assert parse(src) is want
        return
    with pytest.raises(ParseError) as info:
        parse(src)
    e = info.value
    assert (str(e), e.offset, e.expected) == want


@pytest.mark.parametrize(
    "parse,nest,offset",
    [
        # the offset of the first token inside the level past the limit
        (parse_type, lambda n: "(" * n + "a" + ")" * n, MAX_NESTING + 1),
        (parse_type, lambda n: "a -> " * n + "a", 5 * (MAX_NESTING + 1)),
        (parse_term, lambda n: "(" * n + "x" + ")" * n, MAX_NESTING + 1),
        (parse_term, lambda n: "\\x. " * n + "x", 4 * (MAX_NESTING + 1)),
    ],
)
def test_nesting_error_offset(parse, nest, offset):
    for n in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError) as info:
            parse(nest(n))
        e = info.value
        assert (str(e), e.offset, e.expected) == (
            f"at offset {offset}: nesting deeper than MAX_NESTING = {MAX_NESTING}",
            offset,
            None,
        )


def test_parse_type_checks_atoms_against_spec(ba):
    assert parse_type("a -> b", ba) == Arrow(Atom("a"), Atom("b"))
    with pytest.raises(UnknownAtomError):
        parse_type("zeta", ba)
    with pytest.raises(UnknownAtomError):
        parse_type("omega", ba)


# ---------------------------------------------------------------- parse memo


@pytest.mark.parametrize(
    "parse,reader,src",
    [(parse_type, "_read_type", "memo_a -> memo_b & memo_a"),
     (parse_term, "_read_term", r"\memo_x. memo_x memo_y")],
)
def test_repeated_text_is_read_once(monkeypatch, parse, reader, src):
    reads = []
    read = getattr(syntax, reader)
    monkeypatch.setattr(syntax, reader, lambda s: reads.append(s) or read(s))
    t = parse(src)
    assert parse(src) is t
    assert parse(src) is t
    assert reads == [src]


def test_memo_hit_still_checks_the_spec():
    big, small = named_theory(NamedTheory.BA, 3), named_theory(NamedTheory.BA, 1)
    src = "c -> b & a"
    t = parse_type(src, big)
    for spec in (small, None, big, small):
        if spec is small:
            with pytest.raises(UnknownAtomError) as info:
                parse_type(src, spec)
            assert info.value.atom == "b"  # the least unknown atom
        else:
            assert parse_type(src, spec) is t
    assert parse_type("omega", named_theory(NamedTheory.BCD, 0)) is Atom("omega")
    with pytest.raises(UnknownAtomError):
        parse_type("omega", big)


@pytest.mark.parametrize(
    "parse,src",
    [(parse_type, "a -> (b"), (parse_type, "a -> 1"),
     (parse_type, "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1)),
     (parse_term, r"\x x"),
     (parse_term, "\\x. " * (MAX_NESTING + 1) + "x")],
    ids=["type", "type-char", "type-nesting", "term", "term-nesting"],
)
def test_failing_text_fails_the_same_every_time(parse, src):
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse(src)
        e = info.value
        errors.append((str(e), e.offset, e.expected))
        assert not any(key[1] == src for key in syntax._PARSED)
    assert errors[0] == errors[1]


def test_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(syntax, "_PARSE_CAP", 4)
    syntax._PARSED.clear()
    kept = []
    for i in range(10):
        for parse, src in ((parse_type, f"cap{i} -> cap{i}"), (parse_term, f"cap{i} cap{i}")):
            kept.append((parse(src), parse, src))
            assert len(syntax._PARSED) <= 4
    for t, parse, src in kept:
        assert parse(src) is t


def test_search_corpus_parses_as_without_the_memo():
    wl = _workloads()
    specs = {
        key: named_theory(NamedTheory(name), fresh)
        for key, (name, fresh) in wl.THEORIES.items()
    }
    texts = []
    for key, ctx, term, ty, _ in list(wl.search_corpus(2000)) + list(wl.KNOWN_JUDGMENTS):
        spec = specs[key]
        texts += [(parse_type, t.split(":", 1)[1], spec)
                  for t in filter(None, (e.strip() for e in ctx.split(",")))]
        texts += [(parse_term, term, None), (parse_type, ty, spec)]
    first = [parse(src, spec) if spec else parse(src) for parse, src, spec in texts]
    assert len({src for _, src, _ in texts}) < len(texts) / 4  # most texts repeat
    for t, (parse, src, spec) in zip(first, texts):
        syntax._PARSED.clear()
        assert (parse(src, spec) if spec else parse(src)) is t


def _types(atoms=("a", "b")):
    atom = st.sampled_from([Atom(n) for n in atoms])
    return st.recursive(
        atom,
        lambda sub: st.one_of(
            st.builds(Arrow, sub, sub), st.builds(Inter, sub, sub)
        ),
        max_leaves=12,
    )


@given(_types())
def test_print_parse_type_roundtrip(t):
    assert parse_type(print_type(t)) == t


def test_deep_constructed_types_print_and_measure():
    # built with the constructors, so the parser's nesting limit is no guard
    n = 5000
    left, right = Atom("a"), Atom("a")
    for _ in range(n):
        left = Arrow(left, Atom("b"))
        right = Inter(Atom("b"), right)
    assert print_type(left) == "(" * (n - 1) + "a -> b" + ") -> b" * (n - 1)
    assert print_type(right) == "b & (" * (n - 1) + "b & a" + ")" * (n - 1)
    assert type_atoms(left) == type_atoms(right) == {"a", "b"}


# ---------------------------------------------------------------- terms


@pytest.mark.parametrize(
    "src,expected",
    [
        ("x", Var("x")),
        ("x y", App(Var("x"), Var("y"))),
        ("x y z", App(App(Var("x"), Var("y")), Var("z"))),
        (r"\x. x", Lam("x", Var("x"))),
        (r"\x. x x", Lam("x", App(Var("x"), Var("x")))),
        # body extends maximally right
        (r"\x. \y. x y", Lam("x", Lam("y", App(Var("x"), Var("y"))))),
        (r"(\x. x) y", App(Lam("x", Var("x")), Var("y"))),
    ],
)
def test_parse_term(src, expected):
    assert parse_term(src) == expected


def _terms():
    names = st.sampled_from(["x", "y", "z"])
    return st.recursive(
        st.builds(Var, names),
        lambda sub: st.one_of(
            st.builds(Lam, names, sub), st.builds(App, sub, sub)
        ),
        max_leaves=10,
    )


@given(_terms())
def test_print_parse_term_roundtrip(m):
    assert parse_term(print_term(m)) == m


def test_deep_constructed_terms_print():
    # a left-nested spine has no nesting the parser counts, so it parses at
    # any length; printing and hashing must not recurse on it either
    n = 5000
    spine = Var("x")
    for _ in range(n):
        spine = App(spine, Var("x"))
    text = " ".join(["x"] * (n + 1))
    assert print_term(spine) == text
    assert parse_term(text) is spine
    assert hash(spine) == hash(parse_term(text))
    body = Var("x")
    for _ in range(n):
        body = Lam("x", App(Var("y"), body))
    assert print_term(body) == "\\x. y (" * (n - 1) + "\\x. y x" + ")" * (n - 1)


def test_free_vars():
    assert free_vars(parse_term(r"\x. x y")) == {"y"}
    assert free_vars(parse_term(r"(\x. x) x")) == {"x"}


def test_alpha_eq_renames_bound_only():
    assert alpha_eq(parse_term(r"\x. x"), parse_term(r"\y. y"))
    assert alpha_eq(parse_term(r"\x. \y. x"), parse_term(r"\a. \b. a"))
    assert not alpha_eq(parse_term(r"\x. \y. x"), parse_term(r"\x. \y. y"))
    assert not alpha_eq(parse_term(r"\x. y"), parse_term(r"\x. z"))


def test_alpha_eq_on_deep_abstraction_chains():
    n = 5000

    def chain(binders, var):
        t = Var(var)
        for i in range(n):
            t = Lam(binders[i % 2], t)
        return t

    # the variable is bound by the innermost binder in the first two chains
    # and by the one around it in the third
    assert alpha_eq(chain("xy", "x"), chain("uv", "u"))
    assert not alpha_eq(chain("xy", "x"), chain("uv", "v"))


# ---------------------------------------------------------------- substitution


def _free_vars_reference(t):
    match t:
        case Var(x):
            return {x}
        case Lam(x, body):
            return _free_vars_reference(body) - {x}
        case App(f, a):
            return _free_vars_reference(f) | _free_vars_reference(a)


@given(_terms())
def test_free_vars_matches_recursive_definition(m):
    assert free_vars(m) == _free_vars_reference(m)


def test_contraction_avoids_capture():
    c = contract_head(parse_term(r"(\x. \y. x) y"))
    assert alpha_eq(c, parse_term(r"\z. y"))
    assert free_vars(c) == {"y"}
    # the fresh name avoids every name already in the term
    c = contract_head(parse_term(r"(\x. \y. x y0 y1 y) y"))
    assert alpha_eq(c, parse_term(r"\z. y y0 y1 z"))


def test_contraction_respects_shadowing():
    assert contract_head(parse_term(r"(\x. \x. x) (\u. u)")) == parse_term(r"\x. x")
    assert alpha_eq(contract_head(parse_term(r"(\x. \x. x) x")), parse_term(r"\x. x"))


def test_contraction_keeps_the_spine_arguments():
    c = contract_head(parse_term(r"(\x. x x) y z w"))
    assert c == parse_term("y y z w")
    assert contract_head(parse_term("x y")) is None
    assert contract_head(parse_term(r"\x. (\y. y) x")) is None


@given(_terms(), _terms())
def test_substitution_free_variables(m, n):
    # FV(m[x := n]) = FV(m) - {x}, plus FV(n) when x is free in m
    want = free_vars(m) - {"x"}
    if "x" in free_vars(m):
        want |= free_vars(n)
    got = substitute(m, "x", n)
    assert free_vars(got) == want
    if "x" not in free_vars(m):
        assert alpha_eq(got, m)


def test_substitution_on_deep_body():
    body = Var("x")
    for i in range(5000):
        body = Lam(f"y{i % 3}", App(body, Var("w")))
    got = substitute(body, "x", Var("y0"))
    # the binders named y0 are renamed, so the substituted y0 stays free
    assert free_vars(got) == {"w", "y0"}
    depth = 0
    while isinstance(got, Lam):
        got = got.body.fun
        depth += 1
    assert depth == 5000
    assert got == Var("y0")


def test_repr_of_a_deep_type_term_and_spec():
    # repr is built from the printers, so no depth raises RecursionError
    a = Atom("a")
    t = a
    for _ in range(3000):
        t = Arrow(a, t)
    assert len(str(t)) == 15001
    assert repr(t) == f"Arrow({str(t)!r})"
    m = Var("x")
    for _ in range(3000):
        m = Lam("x", m)
    assert len(str(m)) == 12001
    assert repr(m) == f"Lam({str(m)!r})"
    b = Atom("b")
    rhs = b
    for _ in range(1200):
        rhs = Arrow(b, rhs)
    spec = make_spec({"a", "b"}, BA_RULES, {"a": rhs})
    assert f"(('a', Arrow({str(rhs)!r})),)" in repr(spec)
    assert repr(a) == "Atom('a')" and repr(Inter(a, b)) == "Inter('a & b')"


def test_repr_of_a_doubled_type_and_term_is_cut():
    # 2**60 paths to a leaf: the full text would never end, so repr walks
    # only as far as REPR_CAP characters and says where it cut.  Each check
    # is named, since a failed assertion would print the node.
    t, m = Atom("a"), Var("x")
    for _ in range(60):
        t, m = Inter(t, t), App(m, m)
    cap = syntax.REPR_CAP
    shown = {"type": repr(t), "term": repr(m)}
    prefix = {"type": "Inter('a & a & (a & a)", "term": "App('x x (x x)"}
    checks = {}
    for kind, text in shown.items():
        checks[f"{kind} starts with its text"] = text.startswith(prefix[kind])
        checks[f"{kind} marks the cut"] = text.endswith(f"', cut at {cap} characters)")
        checks[f"{kind} shows {cap} characters"] = len(text) < cap + 50
    assert [check for check, ok in checks.items() if not ok] == []
    # a text of exactly REPR_CAP characters is shown whole
    u = Atom("a" * (cap - 5))
    u = Arrow(u, Atom("b"))
    assert len(str(u)) == cap and repr(u) == f"Arrow({str(u)!r})"
