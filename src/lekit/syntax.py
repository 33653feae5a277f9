"""Signatures, formulas and sequents, with parsers and printers.

A signature lists normal lattice-expansion connectives.  Each connective
belongs to family "F" (join-like) or "G" (meet-like), has an arity and an
order type: a tuple over {"1", "d"} giving, per coordinate, whether the
connective is monotone ("1") or antitone ("d") there.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import ParseError, SignatureError

MONO = "1"
ANTI = "d"

_ORDER_ALIASES = {
    "1": MONO,
    "one": MONO,
    "d": ANTI,
    "partial": ANTI,
    "∂": ANTI,
}


@dataclass(frozen=True)
class Connective:
    name: str
    family: str
    arity: int
    order_type: tuple

    def __post_init__(self):
        if self.family not in ("F", "G"):
            raise SignatureError(f"connective {self.name!r}: family must be 'F' or 'G'")
        if self.arity < 0:
            raise SignatureError(f"connective {self.name!r}: negative arity")
        if len(self.order_type) != self.arity:
            raise SignatureError(
                f"connective {self.name!r}: order type has length "
                f"{len(self.order_type)}, expected {self.arity}"
            )
        for e in self.order_type:
            if e not in (MONO, ANTI):
                raise SignatureError(f"connective {self.name!r}: bad order type entry {e!r}")


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"top", "bot"}


@dataclass(frozen=True)
class Signature:
    connectives: tuple

    def __post_init__(self):
        seen = set()
        for c in self.connectives:
            if not _IDENT.match(c.name) or c.name in _RESERVED:
                raise SignatureError(f"bad connective name {c.name!r}")
            if c.name in seen:
                raise SignatureError(f"duplicate connective name {c.name!r}")
            seen.add(c.name)

    def get(self, name):
        for c in self.connectives:
            if c.name == name:
                return c
        return None

    def __contains__(self, name):
        return self.get(name) is not None

    def to_dict(self):
        return {
            "connectives": [
                {
                    "name": c.name,
                    "family": c.family,
                    "arity": c.arity,
                    "order_type": list(c.order_type),
                }
                for c in self.connectives
            ]
        }


EMPTY_SIGNATURE = Signature(())


def signature_from_dict(data):
    if not isinstance(data, dict) or not isinstance(data.get("connectives"), (list, tuple)):
        raise SignatureError("signature must be an object with a 'connectives' list")
    conns = []
    for entry in data["connectives"]:
        try:
            name = entry["name"]
            family = entry["family"]
            arity = entry["arity"]
            raw_ot = entry["order_type"]
        except (KeyError, TypeError) as exc:
            raise SignatureError(f"connective entry missing field: {exc}") from exc
        if not (
            isinstance(name, str)
            and isinstance(arity, int)
            and isinstance(raw_ot, (list, tuple))
        ):
            raise SignatureError(
                f"connective {name!r}: name must be a string, arity an integer "
                "and order_type a list"
            )
        ot = []
        for e in raw_ot:
            if not isinstance(e, str) or e not in _ORDER_ALIASES:
                raise SignatureError(f"connective {name!r}: unknown order type entry {e!r}")
            ot.append(_ORDER_ALIASES[e])
        conns.append(Connective(name, family, arity, tuple(ot)))
    return Signature(tuple(conns))


def parse_signature(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    return signature_from_dict(data)


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Conn:
    name: str
    args: tuple


@dataclass(frozen=True)
class Sequent:
    lhs: object
    rhs: object


TOP = Top()
BOT = Bot()


def props_of(phi):
    """The set of proposition names occurring in a formula or sequent."""
    if isinstance(phi, Sequent):
        return props_of(phi.lhs) | props_of(phi.rhs)
    if isinstance(phi, Prop):
        return {phi.name}
    if isinstance(phi, (And, Or)):
        return props_of(phi.left) | props_of(phi.right)
    if isinstance(phi, Conn):
        out = set()
        for a in phi.args:
            out |= props_of(a)
        return out
    return set()


def depth_of(phi):
    if isinstance(phi, Sequent):
        return max(depth_of(phi.lhs), depth_of(phi.rhs))
    if isinstance(phi, (And, Or)):
        return 1 + max(depth_of(phi.left), depth_of(phi.right))
    if isinstance(phi, Conn):
        return 1 + max((depth_of(a) for a in phi.args), default=0)
    return 0


def validate_formula(phi, signature):
    """Raise SignatureError if phi uses unknown connectives or wrong arities."""
    kind = type(phi)  # the formula classes are final: no subclass to dispatch on
    if kind is Sequent:
        validate_formula(phi.lhs, signature)
        validate_formula(phi.rhs, signature)
    elif kind is And or kind is Or:
        validate_formula(phi.left, signature)
        validate_formula(phi.right, signature)
    elif kind is Conn:
        connective_of(phi, signature)
        for a in phi.args:
            validate_formula(a, signature)


def connective_of(node, signature):
    """The connective of a Conn node; SignatureError if it is not in the
    signature or has another arity."""
    c = signature.get(node.name)
    if c is None:
        raise SignatureError(f"unknown connective {node.name!r}")
    if len(node.args) != c.arity:
        raise SignatureError(
            f"connective {node.name!r} expects {c.arity} arguments, got {len(node.args)}"
        )
    return c


# Tokenizer

# Whitespace matches no group, so finditer steps over it; any other
# character that starts no token is a "bad" one.
_TOKEN = re.compile(
    r"""(?P<and>/\\)
      | (?P<or>\\/)
      | (?P<seq>\|-)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<comma>,)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<bad>\S)
    """,
    re.VERBOSE,
)


def _tokenize(text):
    """The tokens of text as (kind, value, index), then ("eof", "", len(text))."""
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise _error(text, f"unexpected character {value!r}", pos)
    tokens.append(("eof", "", len(text)))
    return tokens


def _error(text, message, pos):
    """A ParseError at index pos of text, by 1-based line and column; only
    "\n" ends a line."""
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


class _Parser:
    def __init__(self, text, signature):
        self.text = text
        self.tokens = _tokenize(text)
        self.sig = signature
        self.i = 0

    def error(self, message, tok):
        return _error(self.text, message, tok[2])

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise self.error(f"expected {kind}, found {tok[1]!r}", tok)
        return tok

    def end(self):
        tok = self.peek()
        if tok[0] != "eof":
            raise self.error(f"trailing input {tok[1]!r}", tok)

    def formula(self):
        """One whole formula; nesting past the recursion limit is a ParseError."""
        try:
            return self.or_expr()
        except RecursionError:
            raise ParseError("input is nested too deeply") from None

    def or_expr(self):
        node = self.and_expr()
        while self.peek()[0] == "or":
            self.next()
            node = Or(node, self.and_expr())
        return node

    def and_expr(self):
        node = self.unary_expr()
        while self.peek()[0] == "and":
            self.next()
            node = And(node, self.unary_expr())
        return node

    def unary_expr(self):
        tok = self.next()
        kind, value, _ = tok
        if kind == "lpar":
            node = self.or_expr()
            self.expect("rpar")
            return node
        if kind != "ident":
            raise self.error(f"expected a formula, found {value!r}", tok)
        if value == "top":
            return TOP
        if value == "bot":
            return BOT
        conn = self.sig.get(value)
        if conn is None:
            return Prop(value)
        if conn.arity == 0:
            return Conn(value, ())
        if conn.arity == 1 and self.peek()[0] != "lpar":
            return Conn(value, (self.unary_expr(),))
        self.expect("lpar")
        args = [self.or_expr()]
        while self.peek()[0] == "comma":
            self.next()
            args.append(self.or_expr())
        self.expect("rpar")
        if len(args) != conn.arity:
            raise self.error(
                f"connective {value!r} expects {conn.arity} arguments, got {len(args)}", tok
            )
        return Conn(value, tuple(args))


def parse_formula(text, signature=EMPTY_SIGNATURE):
    p = _Parser(text, signature)
    node = p.formula()
    p.end()
    return node


def parse_sequent(text, signature=EMPTY_SIGNATURE):
    p = _Parser(text, signature)
    lhs = p.formula()
    tok = p.next()
    if tok[0] != "seq":
        raise p.error(f"expected '|-', found {tok[1]!r}", tok)
    rhs = p.formula()
    p.end()
    return Sequent(lhs, rhs)


# Printer.  Levels: Or = 1, And = 2, unary application = 3, atoms = 5.


def _level(phi):
    if isinstance(phi, Or):
        return 1
    if isinstance(phi, And):
        return 2
    if isinstance(phi, Conn) and len(phi.args) == 1:
        return 3
    return 5


def _render(phi, min_level):
    if isinstance(phi, Prop):
        text = phi.name
    elif isinstance(phi, Top):
        text = "top"
    elif isinstance(phi, Bot):
        text = "bot"
    elif isinstance(phi, Or):
        text = f"{_render(phi.left, 1)} \\/ {_render(phi.right, 2)}"
    elif isinstance(phi, And):
        text = f"{_render(phi.left, 2)} /\\ {_render(phi.right, 3)}"
    elif isinstance(phi, Conn):
        if len(phi.args) == 1:
            text = f"{phi.name} {_render(phi.args[0], 3)}"
        elif phi.args:
            text = f"{phi.name}({', '.join(_render(a, 0) for a in phi.args)})"
        else:
            text = phi.name
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if _level(phi) < min_level:
        return f"({text})"
    return text


def format_formula(phi):
    return _render(phi, 0)


def format_sequent(s):
    return f"{format_formula(s.lhs)} |- {format_formula(s.rhs)}"
