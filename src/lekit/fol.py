"""Standard translation into two-sorted first order logic.

Variables are W-sorted or U-sorted.  Atoms are the incidence N(x, y),
relation atoms R_c(head, args...), extent/intent predicates for
propositions, and equality.  The translation of a formula comes in a
W-sorted version (membership in the extent) and a U-sorted version
(membership in the intent); a sequent has three interchangeable shapes.

eval_fo runs a formula as generated code.  Its relation, proposition and
free variable names are lifted out as inputs read from the model at each
call, and the code for its shape (a for loop per quantifier, short-circuit
expressions between them) is compiled once and cached by emit.compiled,
so formulas that differ only in names, or one translated again, share it.
Formula objects are looked up by identity first, until collected.  A
formula object is walked without compiling (_truth) until its calls add
up to PLAIN_VISITS atom visits, so a one-off question pays no compile.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .emit import MAX_LOOPS, compiled
from .errors import FormatError, SortError
from .frame import connective_sorts
from .syntax import And, Bot, Conn, Or, Prop, Top, validate_formula

SEQUENT_FORMS = ("impl-x", "impl-y", "pairing")


@dataclass(frozen=True)
class Var:
    sort: str  # "W" or "U"
    name: str


@dataclass(frozen=True)
class NAtom:
    x: Var
    y: Var


@dataclass(frozen=True)
class RAtom:
    name: str
    args: tuple  # head variable first


@dataclass(frozen=True)
class PredAtom:
    kind: str  # "ext" or "int"
    prop: str
    var: Var


@dataclass(frozen=True)
class Eq:
    left: Var
    right: Var


@dataclass(frozen=True)
class FAnd:
    left: object
    right: object


@dataclass(frozen=True)
class FImp:
    left: object
    right: object


@dataclass(frozen=True)
class Forall:
    var: Var
    body: object


@dataclass(frozen=True)
class Exists:
    var: Var
    body: object


class VarGen:
    """Deterministic fresh variable supply, one counter per sort."""

    def __init__(self):
        self.counters = {"W": 0, "U": 0}

    def fresh(self, sort):
        self.counters[sort] += 1
        base = "x" if sort == "W" else "y"
        return Var(sort, f"{base}{self.counters[sort]}")


def _conj(parts):
    if not parts:
        return None
    out = parts[0]
    for p in parts[1:]:
        out = FAnd(out, p)
    return out


def _imp(ante, cons):
    return cons if ante is None else FImp(ante, cons)


def _foralls(vars_, body):
    for v in reversed(vars_):
        body = Forall(v, body)
    return body


def _st(phi, sig, sort, var, gen):
    if isinstance(phi, Prop):
        return PredAtom("ext" if sort == "W" else "int", phi.name, var)
    if isinstance(phi, Top):
        if sort == "W":
            return Eq(var, var)
        x = gen.fresh("W")
        return Forall(x, NAtom(x, var))
    if isinstance(phi, Bot):
        if sort == "U":
            return Eq(var, var)
        y = gen.fresh("U")
        return Forall(y, NAtom(var, y))
    if isinstance(phi, And):
        if sort == "W":
            return FAnd(_st(phi.left, sig, "W", var, gen), _st(phi.right, sig, "W", var, gen))
        x = gen.fresh("W")
        return Forall(x, FImp(_st(phi, sig, "W", x, gen), NAtom(x, var)))
    if isinstance(phi, Or):
        if sort == "U":
            return FAnd(_st(phi.left, sig, "U", var, gen), _st(phi.right, sig, "U", var, gen))
        y = gen.fresh("U")
        return Forall(y, FImp(_st(phi, sig, "U", y, gen), NAtom(var, y)))
    if isinstance(phi, Conn):
        conn = sig.get(phi.name)
        if conn is None:
            raise FormatError(f"unknown connective {phi.name!r}")
        coord_sorts = connective_sorts(conn)[1:]
        if conn.family == "G":
            if sort == "W":
                fresh = [gen.fresh(s) for s in coord_sorts]
                ante = _conj(
                    [_st(a, sig, v.sort, v, gen) for a, v in zip(phi.args, fresh)]
                )
                return _foralls(fresh, _imp(ante, RAtom(phi.name, (var,) + tuple(fresh))))
            x = gen.fresh("W")
            return Forall(x, FImp(_st(phi, sig, "W", x, gen), NAtom(x, var)))
        # family F
        if sort == "U":
            fresh = [gen.fresh(s) for s in coord_sorts]
            ante = _conj(
                [_st(a, sig, v.sort, v, gen) for a, v in zip(phi.args, fresh)]
            )
            return _foralls(fresh, _imp(ante, RAtom(phi.name, (var,) + tuple(fresh))))
        y = gen.fresh("U")
        return Forall(y, FImp(_st(phi, sig, "U", y, gen), NAtom(var, y)))
    raise TypeError(f"not a formula: {phi!r}")


def standard_translate(phi, sig, sort="W", var=None):
    """The W-sorted (extent) or U-sorted (intent) translation of phi.

    The free variable defaults to x (sort W) or y (sort U).
    """
    validate_formula(phi, sig)
    if sort not in ("W", "U"):
        raise SortError(f"sort must be 'W' or 'U', got {sort!r}")
    if var is None:
        var = Var(sort, "x" if sort == "W" else "y")
    elif var.sort != sort:
        raise SortError(f"variable {var.name} has sort {var.sort}, expected {sort}")
    return _st(phi, sig, sort, var, VarGen())


def translate_sequent(sequent, sig, form="impl-x"):
    """A first order sentence equivalent to validity of the sequent."""
    validate_formula(sequent, sig)
    gen = VarGen()
    if form == "impl-x":
        x = Var("W", "x")
        return Forall(
            x, FImp(_st(sequent.lhs, sig, "W", x, gen), _st(sequent.rhs, sig, "W", x, gen))
        )
    if form == "impl-y":
        y = Var("U", "y")
        return Forall(
            y, FImp(_st(sequent.rhs, sig, "U", y, gen), _st(sequent.lhs, sig, "U", y, gen))
        )
    if form == "pairing":
        x = Var("W", "x")
        y = Var("U", "y")
        body = FImp(
            FAnd(_st(sequent.lhs, sig, "W", x, gen), _st(sequent.rhs, sig, "U", y, gen)),
            NAtom(x, y),
        )
        return Forall(x, Forall(y, body))
    raise FormatError(f"unknown sequent form {form!r}; choose from {SEQUENT_FORMS}")


def check_sorts(fof, sig):
    """Validate variable sorts against atom shapes; raises SortError."""
    if isinstance(fof, NAtom):
        if fof.x.sort != "W" or fof.y.sort != "U":
            raise SortError(f"N atom needs (W, U) variables, got ({fof.x.sort}, {fof.y.sort})")
    elif isinstance(fof, RAtom):
        conn = sig.get(fof.name)
        if conn is None:
            raise SortError(f"relation atom for unknown connective {fof.name!r}")
        expected = connective_sorts(conn)
        if len(fof.args) != len(expected):
            raise SortError(
                f"relation atom {fof.name!r} has {len(fof.args)} arguments, "
                f"expected {len(expected)}"
            )
        for v, s in zip(fof.args, expected):
            if v.sort != s:
                raise SortError(
                    f"relation atom {fof.name!r}: variable {v.name} has sort "
                    f"{v.sort}, expected {s}"
                )
    elif isinstance(fof, PredAtom):
        want = "W" if fof.kind == "ext" else "U"
        if fof.var.sort != want:
            raise SortError(
                f"{fof.kind} predicate of {fof.prop!r} needs a {want} variable"
            )
    elif isinstance(fof, Eq):
        if fof.left.sort != fof.right.sort:
            raise SortError("equality between different sorts")
    elif isinstance(fof, (FAnd, FImp)):
        check_sorts(fof.left, sig)
        check_sorts(fof.right, sig)
    elif isinstance(fof, (Forall, Exists)):
        check_sorts(fof.body, sig)
    else:
        raise TypeError(f"not a first order formula: {fof!r}")


def eval_fo(model, fof, env=None):
    """Tarskian evaluation over the model's frame and valuation.

    env maps the free variables (Var) to point indices.  The sentence is
    walked, and past PLAIN_VISITS atom visits runs as generated code (see
    _Sentence), looked up once per sentence object.
    An unbound free variable, like a missing relation or proposition or a
    node that is not first order, raises only when evaluation reaches it.
    """
    sentence = _sentence(fof)
    sources = (model.frame.relations, model.valuation, env or {})
    values = [
        getattr(sources[s].get(key), attr, _ABSENT) if attr else sources[s].get(key, _ABSENT)
        for s, key, attr in sentence.inputs
    ]
    pol = model.frame.polarity
    if _ABSENT in values:
        absent = tuple(i for i, v in enumerate(values) if v is _ABSENT)
        fns = compiled(_emit_sentence, sentence.key + (absent,))
    elif sentence.fns is not None:
        fns = sentence.fns
    else:
        sentence.visits += sentence.atom_visits(max(pol.nw, pol.nu))
        if sentence.visits <= PLAIN_VISITS and not sentence.bad:
            points = {-1 - i: v for i, v in enumerate(values)}
            return _truth(sentence.key[0], pol.rows, pol.nw, pol.nu, values, points)
        fns = sentence.fns = compiled(_emit_sentence, sentence.key + ((),))
    return fns[0](fns, pol.rows, pol.nw, pol.nu, values, sentence.fail)


# Atom visits (atom_visits, summed over calls) a sentence object runs as a
# plain walk before its code is compiled: emitting and compiling a sentence
# (0.5-1 ms) costs about as much as the walk spends on a thousand of them.
PLAIN_VISITS = 1000

# id(sentence) -> (weak reference to the sentence, its _Sentence); an entry
# is dropped when its sentence is collected.
_PROGRAMS = {}
_ABSENT = object()


def _sentence(fof):
    key = id(fof)
    entry = _PROGRAMS.get(key)
    if entry is not None and entry[0]() is fof:
        return entry[1]
    sentence = _Sentence(fof)
    try:
        ref = weakref.ref(fof, lambda _: _PROGRAMS.pop(key, None))
    except TypeError:  # no weak reference, so no way to see it collected
        return sentence
    _PROGRAMS[key] = (ref, sentence)
    return sentence


class _Sentence:
    """A first order formula with its names lifted out.

    inputs lists what the formula reads, as (source, key, attribute): from
    the relations (0, name, "tuples"), from the valuation (1, proposition,
    "extent" or "intent"), from env (2, Var, None).  shape is the formula
    as nested tuples with each input replaced by its index i and each
    quantifier by its number k; a variable is k, or -1 - i when free.
    Nodes are ("N", x, y), ("=", x, y), ("R", i, vars), ("P", i, x), ("&",
    a, b), (">", a, b), ("A" or "E", k, is_w, body), and ("!", j) for the
    j-th node that is not first order.  Equal shapes share their code, so
    a sentence translated again is served without compiling.  Until its
    calls have counted PLAIN_VISITS atom visits, _truth walks the shape
    instead and fns is None.  atoms[d] counts the atoms under d quantifiers.
    """

    def __init__(self, fof):
        self.inputs = {}
        self.bad = []
        self.quantifiers = 0
        self.atoms = {}
        shape = self._walk(fof, {}, 0)
        self.inputs = list(self.inputs)
        self.key = (shape, len(self.inputs))
        self.fns = None
        self.visits = 0

    def atom_visits(self, n):
        """Atoms a full evaluation with n points per sort visits, at most."""
        return sum(count * n**depth for depth, count in self.atoms.items())

    def fail(self, i):
        """Raise the error of absent input i, or of bad node i - len(inputs)."""
        if i >= len(self.inputs):
            raise TypeError(f"not a first order formula: {self.bad[i - len(self.inputs)]}")
        source, key, _ = self.inputs[i]
        if source == 2:
            raise SortError(f"unbound variable {key.name}")
        if source == 0:
            raise FormatError(f"no relation for connective {key!r}")
        raise FormatError(f"no value assigned to proposition {key!r}")

    def _input(self, source, key, attr):
        return self.inputs.setdefault((source, key, attr), len(self.inputs))

    def _var(self, var, scope):
        return scope[var] if var in scope else -1 - self._input(2, var, None)

    def _walk(self, f, scope, depth):
        if isinstance(f, (FAnd, FImp)):
            left, right = self._walk(f.left, scope, depth), self._walk(f.right, scope, depth)
            return ("&" if isinstance(f, FAnd) else ">", left, right)
        if isinstance(f, (Forall, Exists)):
            k = self.quantifiers = self.quantifiers + 1
            body = self._walk(f.body, {**scope, f.var: k}, depth + 1)
            return ("A" if isinstance(f, Forall) else "E", k, f.var.sort == "W", body)
        self.atoms[depth] = self.atoms.get(depth, 0) + 1
        if isinstance(f, (NAtom, Eq)):
            a, b = (f.x, f.y) if isinstance(f, NAtom) else (f.left, f.right)
            return ("N" if isinstance(f, NAtom) else "=", self._var(a, scope), self._var(b, scope))
        if isinstance(f, RAtom):
            args = tuple(self._var(v, scope) for v in f.args)
            return ("R", self._input(0, f.name, "tuples"), args)
        if isinstance(f, PredAtom):
            attr = "extent" if f.kind == "ext" else "intent"
            return ("P", self._input(1, f.prop, attr), self._var(f.var, scope))
        self.bad.append(repr(f))  # the text, as the node may be the sentence itself
        return ("!", len(self.bad) - 1)


def _truth(node, rows, nw, nu, X, env):
    """What the code for a shape node computes, walked without compiling.

    env maps quantifier numbers k, and -1 - i for each input i, to values.
    The shape reads no absent input and holds no "!" node.
    """
    op = node[0]
    if op == "&":
        return _truth(node[1], rows, nw, nu, X, env) and _truth(node[2], rows, nw, nu, X, env)
    if op == ">":
        return not _truth(node[1], rows, nw, nu, X, env) or _truth(node[2], rows, nw, nu, X, env)
    if op in ("A", "E"):
        _, k, is_w, body = node
        for env[k] in range(nw if is_w else nu):
            if _truth(body, rows, nw, nu, X, env) is not (op == "A"):
                return op == "E"
        return op == "A"
    if op == "N":
        return rows[env[node[1]]] >> env[node[2]] & 1 == 1
    if op == "=":
        return env[node[1]] == env[node[2]]
    if op == "R":
        return tuple(map(env.__getitem__, node[2])) in X[node[1]]
    return X[node[1]] >> env[node[2]] & 1 == 1


# Per generated function: nested statements before the rest of a sentence
# goes to a function of its own (CPython allows 100 indentation levels),
# and parentheses in one expression (it allows 200 nested ones).
_MAX_DEPTH = 40
_MAX_PARENS = 150


def _emit_sentence(key):
    """Source of f0 (and helpers) evaluating a _Sentence shape.

    key is _Sentence.key plus the indices of the absent inputs.
    Quantifier-free parts become one expression each, with Python's
    short-circuit and/or, and an atom reading an absent input a call
    raising its error.  A quantifier becomes a for loop over the points of
    its sort that breaks at the first witness (exists) or counterexample
    (forall), leaving the value in r.  A part nested past MAX_LOOPS loops
    or _MAX_DEPTH statements moves to a function of its own, called with
    the quantified variables in scope.
    """
    return [line for lines in _SentenceWriter(key).functions for line in lines]


class _SentenceWriter:
    """The functions of one _emit_sentence call, as lists of lines."""

    BASE = "fns, rows, nw, nu, X, fail"

    def __init__(self, key):
        shape, self.ninputs, absent = key
        self.absent = set(absent)
        self.exprs = {}  # id(node) -> expression or None
        unpack = f"    {''.join(f'X{i}, ' for i in range(self.ninputs))}= X"
        self.prologue = [unpack] if self.ninputs else []
        top = [f"def f0({self.BASE}):"] + self.prologue
        self.functions = [top]
        root = self.expr(shape)
        if root is None:
            self.stmt(top, shape, 1, 0, ())
        top.append(f"    return bool({root or 'r'})")

    def expr(self, node):
        """node as one expression, or None if it has a quantifier or is long."""
        if id(node) not in self.exprs:
            self.exprs[id(node)] = self._expr(node)
        return self.exprs[id(node)]

    def _expr(self, node):
        op = node[0]
        if op in ("A", "E"):
            return None
        if op in ("&", ">"):
            a, b = self.expr(node[1]), self.expr(node[2])
            if a is None or b is None or (a + b).count("(") > _MAX_PARENS:
                return None
            return f"({a} and {b})" if op == "&" else f"(not {a} or {b})"
        if op == "!":
            return f"fail({self.ninputs + node[1]})"
        xs = node[2] if op == "R" else node[2:] if op == "P" else node[1:]
        reads = ([node[1]] if op in ("R", "P") else []) + [-1 - x for x in xs if x < 0]
        missing = [i for i in reads if i in self.absent]
        if missing:
            return f"fail({missing[0]})"
        v = [f"v{x}" if x >= 0 else f"X{-1 - x}" for x in xs]
        if op == "N":
            return f"(rows[{v[0]}] >> {v[1]} & 1)"
        if op == "=":
            return f"({v[0]} == {v[1]})"
        if op == "R":
            return f"(({''.join(x + ', ' for x in v)}) in X{node[1]})"
        return f"(X{node[1]} >> {v[0]} & 1)"

    def stmt(self, lines, node, depth, loops, scope):
        """Append lines leaving node's value in r, at indentation depth."""
        pad = "    " * depth
        e = self.expr(node)
        op = node[0]
        if e is not None:
            lines.append(f"{pad}r = {e}")
        elif depth > _MAX_DEPTH or op in ("A", "E") and loops == MAX_LOOPS:
            args = "".join(f", v{q}" for q in scope)
            lines.append(f"{pad}r = fns[{len(self.functions)}]({self.BASE}{args})")
            lines = [f"def f{len(self.functions)}({self.BASE}{args}):"] + self.prologue
            self.functions.append(lines)
            self.stmt(lines, node, 1, 0, scope)
            lines.append("    return r")
        elif op in ("&", ">"):
            a = self.expr(node[1])
            if a is None:
                self.stmt(lines, node[1], depth, loops, scope)
            lines.append(f"{pad}if {a or 'r'}:")
            self.stmt(lines, node[2], depth + 1, loops, scope)
            if a is not None or op == ">":
                lines += [f"{pad}else:", f"{pad}    r = {op == '>'}"]
        else:
            _, k, is_w, body = node
            neg = "not " if op == "A" else ""
            b = self.expr(body)
            lines.append(f"{pad}r = {op == 'A'}")
            lines.append(f"{pad}for v{k} in range({'nw' if is_w else 'nu'}):")
            if b is None:
                self.stmt(lines, body, depth + 1, loops + 1, scope + (k,))
                lines.append(f"{pad}    if {neg}r:")
            else:
                lines += [f"{pad}    if {neg}{b}:", f"{pad}        r = {op == 'E'}"]
            lines.append(f"{pad}        break")


def format_fo(fof):
    """Prefix text rendering, with forall_w / forall_u quantifiers."""
    if isinstance(fof, NAtom):
        return f"(N {fof.x.name} {fof.y.name})"
    if isinstance(fof, RAtom):
        return f"(R_{fof.name} {' '.join(v.name for v in fof.args)})"
    if isinstance(fof, PredAtom):
        return f"(P_{fof.kind}_{fof.prop} {fof.var.name})"
    if isinstance(fof, Eq):
        return f"(= {fof.left.name} {fof.right.name})"
    if isinstance(fof, FAnd):
        return f"(and {format_fo(fof.left)} {format_fo(fof.right)})"
    if isinstance(fof, FImp):
        return f"(-> {format_fo(fof.left)} {format_fo(fof.right)})"
    if isinstance(fof, Forall):
        q = "forall_w" if fof.var.sort == "W" else "forall_u"
        return f"({q} {fof.var.name} {format_fo(fof.body)})"
    if isinstance(fof, Exists):
        q = "exists_w" if fof.var.sort == "W" else "exists_u"
        return f"({q} {fof.var.name} {format_fo(fof.body)})"
    raise TypeError(f"not a first order formula: {fof!r}")
