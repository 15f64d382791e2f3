"""ASTs, parsing and printing for lambda terms and intersection types.

Surface syntax is plain ASCII: ``\\x. M`` for abstraction, ``->`` for the
function arrow, ``&`` for intersection, ``omega`` and ``nu`` for the two
distinguished atoms.  ``&`` binds tighter than ``->``; ``->`` associates to
the right; application associates to the left.
"""

from __future__ import annotations

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
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


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


def type_size(t: Type) -> int:
    n = 0
    todo = [t]  # an explicit stack, so depth is bounded only by memory
    while todo:
        t = todo.pop()
        n += 1
        if isinstance(t, Arrow):
            todo += (t.dom, t.cod)
        elif isinstance(t, Inter):
            todo += (t.left, t.right)
        elif not isinstance(t, Atom):
            raise TypeError(t)
    return n


def type_atoms(t: Type) -> frozenset[str]:
    names = set()
    todo = [t]
    while todo:
        t = todo.pop()
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
    left to right."""
    if not isinstance(t, Inter):
        return [t]
    out = []
    todo = [t]  # an explicit stack, so depth is bounded only by memory
    while todo:
        t = todo.pop()
        if isinstance(t, Inter):
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


# ---------------------------------------------------------------- lexer

# The parsers recurse once per level of nesting, where a level is a
# parenthesis, a right-nested ``->`` or a ``\x.``.  Input nested deeper than
# this raises ParseError.  A parenthesis costs three stack frames, so the
# limit fires well before the interpreter's default recursion limit of 1000.
MAX_NESTING = 200

_SYMBOLS = ("->", "\\", ".", "(", ")", "&")


def _tokenize(src: str):
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("ident", src[i:j], i))
            i = j
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                toks.append((sym, sym, i))
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("eof", "", n))
    return toks


class _Parser:
    def __init__(self, src):
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1] or 'end of input'!r}", tok[2], expected=kind)
        return tok

    def done(self):
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], expected="end of input")

    def check_nesting(self, depth):
        if depth > MAX_NESTING:
            raise ParseError(
                f"nesting deeper than MAX_NESTING = {MAX_NESTING}", self.peek()[2]
            )


def parse_term(src: str) -> Term:
    """Parse ``term ::= lam | app``; application is left-associative and a
    lambda body extends as far right as possible."""
    p = _Parser(src)
    t = _term(p, 0)
    p.done()
    return t


def _term(p, depth):
    p.check_nesting(depth)
    if p.peek()[0] == "\\":
        p.next()
        binder = p.expect("ident")[1]
        p.expect(".")
        return Lam(binder, _term(p, depth + 1))
    return _app(p, depth)


def _app(p, depth):
    t = _atom_term(p, depth)
    while p.peek()[0] in ("ident", "("):
        t = App(t, _atom_term(p, depth))
    return t


def _atom_term(p, depth):
    kind, value, offset = p.next()
    if kind == "ident":
        return Var(value)
    if kind == "(":
        t = _term(p, depth + 1)
        p.expect(")")
        return t
    raise ParseError(f"unexpected {value or 'end of input'!r}", offset, expected="term")


def parse_type(src: str, spec=None) -> Type:
    """Parse a type; when ``spec`` is given, every atom must belong to its
    constant set."""
    p = _Parser(src)
    t = _type(p, 0)
    p.done()
    if spec is not None:
        for name in sorted(type_atoms(t)):
            if name not in spec.atoms:
                raise UnknownAtomError(name)
    return t


def _type(p, depth):
    p.check_nesting(depth)
    left = _inter(p, depth)
    if p.peek()[0] == "->":
        p.next()
        return Arrow(left, _type(p, depth + 1))
    return left


def _inter(p, depth):
    t = _prim(p, depth)
    while p.peek()[0] == "&":
        p.next()
        t = Inter(t, _prim(p, depth))
    return t


def _prim(p, depth):
    kind, value, offset = p.next()
    if kind == "ident":
        return Atom(value)
    if kind == "(":
        t = _type(p, depth + 1)
        p.expect(")")
        return t
    raise ParseError(f"unexpected {value or 'end of input'!r}", offset, expected="type")


# ---------------------------------------------------------------- printers

def print_term(t: Term) -> str:
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


def print_type(t: Type) -> str:
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
