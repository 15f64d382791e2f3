"""ASTs, parsing and printing for lambda terms and intersection types.

The symbols are ASCII: ``\\x. M`` for abstraction, ``->`` for the function
arrow, ``&`` for intersection; ``omega`` and ``nu`` are the two distinguished
atoms, and an identifier is a letter followed by letters, digits or ``_``.
``&`` binds tighter than ``->``; ``->`` associates to the right; ``&`` and
application associate to the left.
"""

from __future__ import annotations

import re
import sys
import weakref

from .errors import ParseError, UnknownAtomError

OMEGA = "omega"
NU = "nu"


# ---------------------------------------------------------------- nodes
#
# Types and terms are hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", 2006): a constructor returns the one live node with its
# fields, so structurally equal nodes are the same object.  Equality is
# identity and the hash is id-based, so neither recurses however deep the
# node.  The intern table holds its nodes weakly: a node nothing else
# references is freed.

_NODES: dict[tuple, weakref.KeyedRef] = {}


def _evict(ref, nodes=_NODES):
    # Called as a node dies; a newer node under the same key stays.
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _intern(cls, *fields):
    key = (cls, *fields)
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        object.__setattr__(node, name, value)
    _NODES[key] = weakref.KeyedRef(node, _evict, key)
    return node


# The most characters of a node's text that its repr shows.
REPR_CAP = 1 << 15


class _Node:
    """An interned, immutable node; subclasses list their fields in
    ``__match_args__`` and build through ``_intern``."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which re-interns
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self):
        # the text of the printers, which keep an explicit stack: Arrow('a -> b').
        # A node that shares its parts can have a text exponential in its node
        # count, so the walk stops past REPR_CAP characters and the cut is marked
        text = (print_type if isinstance(self, Type) else print_term)(self, REPR_CAP + 1)
        if len(text) > REPR_CAP:
            return f"{type(self).__name__}({text[:REPR_CAP]!r}, cut at {REPR_CAP} characters)"
        return f"{type(self).__name__}({text!r})"


# ---------------------------------------------------------------- types


class Type(_Node):
    __slots__ = ()

    def __str__(self):
        return print_type(self)


class Atom(Type):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, name)


class Arrow(Type):
    __slots__ = ("dom", "cod")
    __match_args__ = ("dom", "cod")

    def __new__(cls, dom: Type, cod: Type):
        return _intern(cls, dom, cod)


class Inter(Type):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Type, right: Type):
        return _intern(cls, left, right)


def type_atoms(t: Type) -> frozenset[str]:
    names = set()
    seen = set()  # each distinct node is visited once
    todo = [t]
    while todo:
        t = todo.pop()
        if t in seen:
            continue
        seen.add(t)
        if isinstance(t, Atom):
            names.add(t.name)
        elif isinstance(t, Arrow):
            todo += (t.dom, t.cod)
        elif isinstance(t, Inter):
            todo += (t.left, t.right)
        else:
            raise TypeError(t)
    return frozenset(names)


def conjuncts(t: Type) -> list[Type]:
    """Flatten a binary intersection tree into its non-intersection leaves,
    left to right.  A shared intersection node is expanded once."""
    if not isinstance(t, Inter):
        return [t]
    out = []
    seen = set()
    todo = [t]  # an explicit stack, so depth is bounded only by memory
    while todo:
        t = todo.pop()
        if isinstance(t, Inter):
            if t not in seen:
                seen.add(t)
                todo += (t.right, t.left)
        else:
            out.append(t)
    return out


def inter_of(parts) -> Type:
    """Right-nested intersection of a nonempty list of types."""
    parts = list(parts)
    if not parts:
        raise ValueError("empty intersection")
    acc = parts[-1]
    for p in reversed(parts[:-1]):
        acc = Inter(p, acc)
    return acc


# ---------------------------------------------------------------- terms

class Term(_Node):
    __slots__ = ()

    def __str__(self):
        return print_term(self)


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, name)


class Lam(Term):
    __slots__ = ("binder", "body")
    __match_args__ = ("binder", "body")

    def __new__(cls, binder: str, body: Term):
        return _intern(cls, binder, body)


class App(Term):
    __slots__ = ("fun", "arg")
    __match_args__ = ("fun", "arg")

    def __new__(cls, fun: Term, arg: Term):
        return _intern(cls, fun, arg)


def free_vars(t: Term) -> frozenset[str]:
    out = set()
    bound: dict[str, int] = {}  # binder -> enclosing abstractions binding it
    todo = [t]  # an explicit stack; a str marks leaving that binder's scope
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            bound[t] -= 1
        elif isinstance(t, Var):
            if not bound.get(t.name):
                out.add(t.name)
        elif isinstance(t, Lam):
            bound[t.binder] = bound.get(t.binder, 0) + 1
            todo += (t.binder, t.body)
        elif isinstance(t, App):
            todo += (t.arg, t.fun)
        else:
            raise TypeError(t)
    return frozenset(out)


def _names(t: Term) -> set[str]:
    """Every variable name in t, free, bound or binding."""
    names = set()
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            names.add(t.name)
        elif isinstance(t, Lam):
            names.add(t.binder)
            todo.append(t.body)
        else:
            todo += (t.fun, t.arg)
    return names


def substitute(m: Term, x: str, n: Term) -> Term:
    """m[x := n], capture-avoiding: a binder of m that is free in n, and
    under which x is still substituted, is renamed to a name that occurs
    nowhere in m or n.  The result shares every subterm of m that the
    substitution leaves unchanged.  Walks an explicit stack, so depth is
    bounded only by memory."""
    capture = free_vars(n)
    used = None  # the names to avoid, made on the first renaming
    serial = 0  # fresh names count up across the call, so each is O(1)
    out = []  # finished subterms, in order
    # frames: ("visit", term, env) with env mapping a name to its
    # replacement, ("lam", binder, None) and ("app", None, None)
    todo = [("visit", m, {x: n})]
    while todo:
        kind, t, env = todo.pop()
        if kind == "app":
            arg = out.pop()
            out.append(App(out.pop(), arg))
        elif kind == "lam":
            out.append(Lam(t, out.pop()))
        elif not env:
            out.append(t)  # nothing to replace below here
        elif isinstance(t, Var):
            out.append(env.get(t.name, t))
        elif isinstance(t, App):
            todo += (("app", None, None), ("visit", t.arg, env), ("visit", t.fun, env))
        elif isinstance(t, Lam):
            y = t.binder
            inner = {k: v for k, v in env.items() if k != y} if y in env else env
            if y in capture and x in inner:
                if used is None:
                    used = _names(m) | _names(n)
                z = y
                while z in used:
                    serial += 1
                    z = f"{y}{serial}"
                used.add(z)
                inner = {**inner, y: Var(z)}
                y = z
            todo += (("lam", y, None), ("visit", t.body, inner))
        else:
            raise TypeError(t)
    return out.pop()


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound variables.  Walks an
    explicit stack, so depth is bounded only by memory."""
    # a bound variable is known by the level of its binder; each side maps a
    # name to the levels of the binders of that name in scope, innermost last
    scopes_a: dict[str, list[int]] = {}
    scopes_b: dict[str, list[int]] = {}
    binders = []  # the binder pairs in scope, innermost last
    todo = [(a, b)]  # None marks leaving the innermost binder pair
    while todo:
        pair = todo.pop()
        if pair is None:
            x, y = binders.pop()
            scopes_a[x].pop()
            scopes_b[y].pop()
            continue
        a, b = pair
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is Var:
            la, lb = scopes_a.get(a.name), scopes_b.get(b.name)
            la = la[-1] if la else None
            lb = lb[-1] if lb else None
            if la != lb or (la is None and a.name != b.name):
                return False
        elif kind is Lam:
            level = len(binders)
            scopes_a.setdefault(a.binder, []).append(level)
            scopes_b.setdefault(b.binder, []).append(level)
            binders.append((a.binder, b.binder))
            todo += (None, (a.body, b.body))
        elif kind is App:
            todo += ((a.arg, b.arg), (a.fun, b.fun))
        else:
            return False
    return True


def contract_head(m: Term) -> Term | None:
    """One step of head reduction: (\\x. M) N P1 ... Pk to
    M[x := N] P1 ... Pk.  None when m is not an application headed by an
    abstraction."""
    args = []
    while isinstance(m, App):
        args.append(m.arg)
        m = m.fun
    if not args or not isinstance(m, Lam):
        return None
    c = substitute(m.body, m.binder, args.pop())
    while args:
        c = App(c, args.pop())
    return c


# ---------------------------------------------------------------- parsers

# Input nested deeper than this raises ParseError, where a level is a
# parenthesis, a right-nested ``->`` or a ``\x.``.  The parsers keep an
# explicit stack, so the limit guards no recursion: it bounds the input, and
# such input stays an error (exit 2 from the CLI) at any depth.
MAX_NESTING = 200

_SYMBOLS = ("->", "\\", ".", "(", ")", "&")

# A token is an identifier run, a symbol or any other single non-space
# character, which is an error; whitespace between tokens is skipped.  ``\w``
# is exactly str.isalnum or "_", and the first character of an identifier
# must pass str.isalpha, which the parsers check as they read each token.
_TOKEN = re.compile(r"\w+|->|[\\.()&]|\S")
_tokens = _TOKEN.findall


def _fail(src: str, k: int, expected: str | None):
    """Raise the ParseError for token k of src, where k past the last token
    is the end of input and ``expected=None`` means the nesting limit.  Only
    a failure needs offsets, so they are found here by scanning again.  A
    bad character anywhere in src is reported first, before any error of the
    grammar."""
    spans = [(m.group(), m.start()) for m in _TOKEN.finditer(src)]
    for tok, at in spans:
        if tok not in _SYMBOLS and not tok[0].isalpha():
            raise ParseError(f"unexpected character {tok[0]!r}", at)
    tok, at = spans[k] if k < len(spans) else ("", len(src))
    if expected is None:
        raise ParseError(f"nesting deeper than MAX_NESTING = {MAX_NESTING}", at)
    raise ParseError(f"unexpected {tok or 'end of input'!r}", at, expected=expected)


def _read_type(src: str) -> tuple[Type, frozenset[str]]:
    """The type src denotes and the identifiers in it.  One pass over the
    tokens, with an explicit stack."""
    toks = _tokens(src)
    stack = []  # ("(", the intersection before it) and ("->", domain) frames
    t = None  # the intersection being read
    prim = True  # the next token must begin an atom or a parenthesis
    for i, tok in enumerate(toks):
        if prim:
            if tok[0].isalpha():
                t = Atom(tok) if t is None else Inter(t, Atom(tok))
                prim = False
            elif tok == "(":
                stack.append(("(", t))
                t = None
                if len(stack) > MAX_NESTING:
                    _fail(src, i + 1, None)
            else:
                _fail(src, i, "type")
        elif tok == "&":
            prim = True
        elif tok == "->":
            stack.append(("->", t))
            t, prim = None, True
            if len(stack) > MAX_NESTING:
                _fail(src, i + 1, None)
        else:  # the type ends: only a ')' that closes a parenthesis may follow
            while stack and stack[-1][0] == "->":
                t = Arrow(stack.pop()[1], t)
            if tok != ")" or not stack:
                _fail(src, i, ")" if stack else "end of input")
            left = stack.pop()[1]
            t = t if left is None else Inter(left, t)
    if prim:
        _fail(src, len(toks), "type")
    while stack and stack[-1][0] == "->":
        t = Arrow(stack.pop()[1], t)
    if stack:
        _fail(src, len(toks), ")")
    return t, frozenset(toks).difference(_SYMBOLS)


def _read_term(src: str) -> tuple[Term, None]:
    """The term src denotes, and None for its identifiers, which no caller
    needs.  One pass over the tokens, with an explicit stack."""
    toks = _tokens(src)
    end = (len(toks), "")  # the end of input, as an enumerated token
    stack = []  # ("(", the application before it) and ("\\", binder) frames
    t = None  # the application being read; None at the start of a term
    tokens = enumerate(toks)
    for i, tok in tokens:
        if tok[0].isalpha():
            t = Var(tok) if t is None else App(t, Var(tok))
        elif tok == "(":
            stack.append(("(", t))
            t = None
            if len(stack) > MAX_NESTING:
                _fail(src, i + 1, None)
        elif t is None:  # only a term's start may be an abstraction
            if tok != "\\":
                _fail(src, i, "term")
            i, binder = next(tokens, end)
            if not binder[:1].isalpha():
                _fail(src, i, "ident")
            i, dot = next(tokens, end)
            if dot != ".":
                _fail(src, i, ".")
            stack.append(("\\", binder))
            if len(stack) > MAX_NESTING:
                _fail(src, i + 1, None)
        else:  # the term ends: only a ')' that closes a parenthesis may follow
            while stack and stack[-1][0] == "\\":
                t = Lam(stack.pop()[1], t)
            if tok != ")" or not stack:
                _fail(src, i, ")" if stack else "end of input")
            left = stack.pop()[1]
            t = t if left is None else App(left, t)
    if t is None:
        _fail(src, len(toks), "term")
    while stack and stack[-1][0] == "\\":
        t = Lam(stack.pop()[1], t)
    if stack:
        _fail(src, len(toks), ")")
    return t, None


# Many inputs repeat a text: a corpus of judgments draws its contexts and
# targets from a few types.  Nodes are hash-consed, so parsing a text again
# can only return the node its first parse made, while that node lives.  The
# parse memo maps (Type or Term, text) to that node, held weakly and evicted
# as it dies, and for a type also to the identifiers in the text, so that the
# spec check runs on every call.  Only parses that succeed are stored: a
# failing text is parsed again and raises the same error.

# Entries in the parse memo.  A memo that reaches the cap is cleared, which
# bounds the text a long-running process keeps.
_PARSE_CAP = 1 << 16

_PARSED: dict[tuple, tuple] = {}


def _forget(ref, parsed=_PARSED):
    # Called as a node dies; a newer entry under the same key stays.
    entry = parsed.get(ref.key)
    if entry is not None and entry[0] is ref:
        del parsed[ref.key]


def _parse(kind, read, src: str) -> tuple:
    """read(src), a (node, identifiers) pair, through the parse memo."""
    key = (kind, src)
    entry = _PARSED.get(key)
    node = entry[0]() if entry else None
    if node is None:
        node, names = read(src)
        if len(_PARSED) >= _PARSE_CAP:
            _PARSED.clear()
        entry = _PARSED[key] = (weakref.KeyedRef(node, _forget, key), names)
    return node, entry[1]


def parse_type(src: str, spec=None) -> Type:
    """Parse a type; when ``spec`` is given, every atom must belong to its
    constant set.  A text parsed before returns the node it parsed to, if
    that node is still live; the spec is checked on every call."""
    t, names = _parse(Type, _read_type, src)
    if spec is not None:
        unknown = names.difference(spec.atoms)
        if unknown:
            raise UnknownAtomError(min(unknown))
    return t


def parse_term(src: str) -> Term:
    """Parse ``term ::= \\x. term | app``; application is left-associative
    and an abstraction's body extends as far right as possible.  A text
    parsed before returns the node it parsed to, if that node is still
    live."""
    return _parse(Term, _read_term, src)[0]


# ---------------------------------------------------------------- printers

def print_term(t: Term, limit: int = sys.maxsize) -> str:
    """The text of t, which ``parse_term`` reads back as t.  With ``limit``,
    a prefix of it: the walk stops once it has written that many pieces,
    each at least one character long."""
    # An abstraction extends as far right as possible and application is
    # left-associative: parenthesize an abstraction in function position and
    # an abstraction or application in argument position.  The walk keeps an
    # explicit stack, as print_type's does.
    out = []
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(t.name)
        elif len(out) >= limit:
            break
        elif isinstance(t, Lam):
            todo += (t.body, f"\\{t.binder}. ")
        elif isinstance(t, App):
            f, a = t.fun, t.arg
            todo += (
                *_grouped(a, isinstance(a, (App, Lam))),
                " ",
                *_grouped(f, isinstance(f, Lam)),
            )
        else:
            raise TypeError(t)
    return "".join(out)


def print_type(t: Type, limit: int = sys.maxsize) -> str:
    """The text of t, which ``parse_type`` reads back as t.  With ``limit``,
    a prefix of it: the walk stops once it has written that many pieces,
    each at least one character long."""
    # Grammar: '&' is left-associative and tighter than '->'; '->' is
    # right-associative.  Parenthesize exactly where the tree shape would
    # otherwise be lost, so parse(print(t)) == t.  The walk keeps an explicit
    # stack of types still to print and literal text, next item last.
    out = []
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Atom):
            out.append(t.name)
        elif len(out) >= limit:
            break
        elif isinstance(t, Arrow):
            d = t.dom
            todo += (t.cod, " -> ", *_grouped(d, isinstance(d, Arrow)))
        elif isinstance(t, Inter):
            l, r = t.left, t.right
            todo += (
                *_grouped(r, isinstance(r, (Arrow, Inter))),
                " & ",
                *_grouped(l, isinstance(l, Arrow)),
            )
        else:
            raise TypeError(t)
    return "".join(out)


def _grouped(t, parens: bool) -> tuple:
    """t for a printer's stack, in parentheses if asked, in stack order."""
    return (")", t, "(") if parens else (t,)
