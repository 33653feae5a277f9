"""Standard translation into two-sorted first order logic.

Variables are W-sorted or U-sorted.  Atoms are the incidence N(x, y),
relation atoms R_c(head, args...), extent/intent predicates for
propositions, and equality.  The translation of a formula comes in a
W-sorted version (membership in the extent) and a U-sorted version
(membership in the intent); a sequent has three interchangeable shapes.

eval_fo runs a formula as generated code.  Its relation, proposition and
free variable names are lifted out as the formula's input keys, and the
code for its shape is compiled once and cached by emit.compiled, so
formulas that differ only in names, or one translated again, share it.
That code reads its own inputs from the model and env through the keys
passed in, so a call costs the code and one call.  An input that is
missing, of the wrong kind or not a point of its sort hands the call to
the code keyed with the absent inputs, which raises each one's error
only where evaluation reaches it.  A quantifier whose body reads at most
one other quantified variable v is a bit mask over v's points (a bool if
it reads none), computed once per call from the masks lekit holds: the
rows and columns of N, the extents and intents, and the relations' row
indices; the parts of its body that do not read v are computed before
the loop over v.  Every subformula of a standard translation has one
free variable, so with unary connectives the whole sentence is
O(quantifiers x n) big-int operations.  Other quantifiers are for loops
that stop at the first witness or counterexample, with short-circuit
expressions between them.  Formula objects are looked up by identity
first, until collected, and keep their code from their first call.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial

from .emit import MAX_LOOPS, compiled
from .errors import FormatError, SortError
from .frame import connective_sorts
from .syntax import And, Bot, Conn, Or, Prop, Top, validate_formula

SEQUENT_FORMS = ("impl-x", "impl-y", "pairing")


# The first order formula classes are frozen dataclasses whose __init__
# writes the fields into the instance dict at once, about twice as fast as
# the generated one, which sets each through object.__setattr__: a
# translation builds dozens of them.


@dataclass(frozen=True, init=False)
class Var:
    sort: str  # "W" or "U"
    name: str

    def __init__(self, sort, name):
        d = self.__dict__
        d["sort"], d["name"] = sort, name


@dataclass(frozen=True, init=False)
class NAtom:
    x: Var
    y: Var

    def __init__(self, x, y):
        d = self.__dict__
        d["x"], d["y"] = x, y


@dataclass(frozen=True, init=False)
class RAtom:
    name: str
    args: tuple  # head variable first

    def __init__(self, name, args):
        d = self.__dict__
        d["name"], d["args"] = name, args


@dataclass(frozen=True, init=False)
class PredAtom:
    kind: str  # "ext" or "int"
    prop: str
    var: Var

    def __init__(self, kind, prop, var):
        d = self.__dict__
        d["kind"], d["prop"], d["var"] = kind, prop, var


@dataclass(frozen=True, init=False)
class Eq:
    left: Var
    right: Var

    def __init__(self, left, right):
        d = self.__dict__
        d["left"], d["right"] = left, right


@dataclass(frozen=True, init=False)
class FAnd:
    left: object
    right: object

    def __init__(self, left, right):
        d = self.__dict__
        d["left"], d["right"] = left, right


@dataclass(frozen=True, init=False)
class FImp:
    left: object
    right: object

    def __init__(self, left, right):
        d = self.__dict__
        d["left"], d["right"] = left, right


@dataclass(frozen=True, init=False)
class Forall:
    var: Var
    body: object

    def __init__(self, var, body):
        d = self.__dict__
        d["var"], d["body"] = var, body


@dataclass(frozen=True, init=False)
class Exists:
    var: Var
    body: object

    def __init__(self, var, body):
        d = self.__dict__
        d["var"], d["body"] = var, body


class VarGen:
    """Deterministic fresh variable supply, one counter per sort."""

    def __init__(self):
        self.counters = {"W": 0, "U": 0}

    def fresh(self, sort):
        self.counters[sort] += 1
        base = "x" if sort == "W" else "y"
        return Var(sort, f"{base}{self.counters[sort]}")


def _st(phi, sorts, sort, var, gen):
    """phi's translation at the sort with free variable var, where sorts
    maps each connective name to its connective_sorts."""
    kind = type(phi)  # the formula classes are final: no subclass to dispatch on
    if kind is Prop:
        return PredAtom("ext" if sort == "W" else "int", phi.name, var)
    if kind is Conn:
        coords = sorts[phi.name]
        if sort == coords[0]:
            fresh = tuple(map(gen.fresh, coords[1:]))
            out = RAtom(phi.name, (var,) + fresh)
            if fresh:  # forall fresh: the arguments' conjunction -> R
                ante = None
                for a, v in zip(phi.args, fresh):
                    part = _st(a, sorts, v.sort, v, gen)
                    ante = part if ante is None else FAnd(ante, part)
                out = FImp(ante, out)
                for v in reversed(fresh):
                    out = Forall(v, out)
            return out
    elif kind is (And if sort == "W" else Or):
        return FAnd(_st(phi.left, sorts, sort, var, gen), _st(phi.right, sorts, sort, var, gen))
    elif kind is Top or kind is Bot:
        if sort == ("W" if kind is Top else "U"):
            return Eq(var, var)
        if kind is Top:
            x = gen.fresh("W")
            return Forall(x, NAtom(x, var))
        y = gen.fresh("U")
        return Forall(y, NAtom(var, y))
    elif kind is not And and kind is not Or:
        raise TypeError(f"not a formula: {phi!r}")
    # the other sort: closed through N from the translation at the sort
    # where the clause is direct
    if sort == "U":
        x = gen.fresh("W")
        return Forall(x, FImp(_st(phi, sorts, "W", x, gen), NAtom(x, var)))
    y = gen.fresh("U")
    return Forall(y, FImp(_st(phi, sorts, "U", y, gen), NAtom(var, y)))


def _sorts(sig):
    """The connective_sorts of each connective of sig, by name."""
    return {c.name: connective_sorts(c) for c in sig.connectives}


def standard_translate(phi, sig, sort="W"):
    """The W-sorted (extent) or U-sorted (intent) translation of phi.

    The free variable is x (sort W) or y (sort U).
    """
    validate_formula(phi, sig)
    if sort not in ("W", "U"):
        raise SortError(f"sort must be 'W' or 'U', got {sort!r}")
    return _st(phi, _sorts(sig), sort, Var(sort, "x" if sort == "W" else "y"), VarGen())


def translate_sequent(sequent, sig, form="impl-x"):
    """A first order sentence equivalent to validity of the sequent."""
    validate_formula(sequent, sig)
    gen, sorts, lhs, rhs = VarGen(), _sorts(sig), sequent.lhs, sequent.rhs
    if form == "impl-x":
        x = Var("W", "x")
        return Forall(x, FImp(_st(lhs, sorts, "W", x, gen), _st(rhs, sorts, "W", x, gen)))
    if form == "impl-y":
        y = Var("U", "y")
        return Forall(y, FImp(_st(rhs, sorts, "U", y, gen), _st(lhs, sorts, "U", y, gen)))
    if form == "pairing":
        x = Var("W", "x")
        y = Var("U", "y")
        body = FImp(FAnd(_st(lhs, sorts, "W", x, gen), _st(rhs, sorts, "U", y, gen)), NAtom(x, y))
        return Forall(x, Forall(y, body))
    raise FormatError(f"unknown sequent form {form!r}; choose from {SEQUENT_FORMS}")


def check_sorts(fof, sig):
    """Validate variable sorts against atom shapes; raises SortError."""
    if isinstance(fof, (Forall, Exists)):
        _check_sort(fof.var)
        check_sorts(fof.body, sig)
    elif isinstance(fof, (FAnd, FImp)):
        check_sorts(fof.left, sig)
        check_sorts(fof.right, sig)
    elif isinstance(fof, NAtom):
        _check_sort(fof.x)
        _check_sort(fof.y)
        if fof.x.sort != "W" or fof.y.sort != "U":
            raise SortError(f"N atom needs (W, U) variables, got ({fof.x.sort}, {fof.y.sort})")
    elif isinstance(fof, RAtom):
        for v in fof.args:
            _check_sort(v)
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
        _check_sort(fof.var)
        want = "W" if fof.kind == "ext" else "U"
        if fof.var.sort != want:
            raise SortError(
                f"{fof.kind} predicate of {fof.prop!r} needs a {want} variable"
            )
    elif isinstance(fof, Eq):
        _check_sort(fof.left)
        _check_sort(fof.right)
        if fof.left.sort != fof.right.sort:
            raise SortError("equality between different sorts")
    else:
        raise TypeError(f"not a first order formula: {fof!r}")


def _check_sort(var):
    if var.sort not in ("W", "U"):
        raise SortError(f"variable {var.name} has sort {var.sort!r}, not 'W' or 'U'")


def eval_fo(model, fof, env=None):
    """Tarskian evaluation over the model's frame and valuation.

    env maps the free variables (Var) to point indices.  The sentence
    runs as generated code (see _Sentence), looked up once per sentence
    object, which reads its own inputs from the model and env.
    An unbound free variable, or one bound to a value that is not a point
    of its sort, like a missing relation or proposition or a node that is
    not first order, raises only when evaluation reaches it.
    """
    entry = _PROGRAMS.get(id(fof))  # _sentence's lookup, without its call
    sentence = entry[1] if entry is not None and entry[0]() is fof else _sentence(fof)
    fns = sentence.fns
    return fns[0](fns, model, env, sentence)


def _point(value, sort, pol):
    """value if it is a point of the sort, else _ABSENT."""
    size = pol.nw if sort == "W" else pol.nu if sort == "U" else 0
    return value if isinstance(value, int) and 0 <= value < size else _ABSENT


# id(sentence) -> (weak reference to the sentence, its _Sentence); an entry
# is dropped when its sentence is collected.
_PROGRAMS = {}
_ABSENT = object()
# The sort of the values an input holds, by how it is read (see _Sentence):
# W (True), U (False) or none, for a relation.
_KINDS = {"extent": True, "intent": False, "W": True, "U": False, "Q": False}
# The points of a sort, as loops read them: rw = range(nw), ru = range(nu).
_RANGES = (("rw", "nw"), ("ru", "nu"))


def _sentence(fof):
    """The _Sentence of fof: the one kept for it, else a new one, kept
    until fof is collected if fof takes a weak reference."""
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

    reads and keys list what the formula reads, one input each: a
    relation's tuples ("tuples", its name); a proposition's "extent" or
    "intent" (its name); a free variable's point in env (its sort "W" or
    "U", or "Q" for any other sort, never a point; the Var); and for an R
    atom that reads its innermost quantifier's variable at exactly one
    coordinate j, the relation's row index for head coordinate j
    (("rows", j); the name and the sorts of the atom's variables), or
    that index's one row, or None, when the relation has at most one
    other coordinate (("row", j)), absent unless those sorts are the
    relation's.  shape is the formula as nested tuples with each
    input replaced by its index i and each quantifier by its number k; a
    variable is k, or -1 - i when free.  Nodes are ("N", x, y),
    ("=", x, y), ("R", i, vars, row index input or None), ("P", i, x),
    ("&", a, b), (">", a, b), ("A" or "E", k, is_w, body), and ("!", j)
    for the j-th node that is not first order.  key is (shape, reads):
    equal keys share their code, so a sentence translated again is served
    without compiling.  fns is the code that reads the inputs itself
    (_emit_sentence keyed with None), compiled or looked up when the
    sentence is made.
    """

    def __init__(self, fof):
        self.index = {}  # what an input reads -> its index
        self.reads = []
        self.keys = []
        self.bad = []
        self.quantifiers = 0
        shape = self._walk(fof, {}, 0)
        self.keys = tuple(self.keys)
        self.key = (shape, tuple(self.reads))
        self.fns = compiled(_emit_sentence, self.key + (None,))

    def absent(self, model, env):
        """Evaluate with an input absent or ill-typed, as the code that reads
        the inputs itself hands over: each absent input raises its error
        where evaluation reaches it."""
        frame, valuation, env = model.frame, model.valuation, env or {}
        pol, relations = frame.polarity, frame.relations
        values = [
            _value(read, key, valuation, relations, env, pol)
            for read, key in zip(self.reads, self.keys)
        ]
        absent = tuple(i for i, v in enumerate(values) if v is _ABSENT)
        fns = compiled(_emit_sentence, self.key + (absent,))
        fail = partial(self.fail, env=env)
        return fns[0](fns, pol.rows, pol.cols, pol.nw, pol.nu, pol.full_w, pol.full_u, values, fail)

    def fail(self, i, env=None):
        """Raise the error of absent input i, or of bad node i - len(reads)."""
        if i >= len(self.reads):
            raise TypeError(f"not a first order formula: {self.bad[i - len(self.reads)]}")
        read, key = self.reads[i], self.keys[i]
        if read in ("W", "U", "Q"):
            if env is not None and key in env:
                raise SortError(
                    f"variable {key.name} is bound to {env[key]!r}, "
                    f"not a point of sort {key.sort}"
                )
            raise SortError(f"unbound variable {key.name}")
        if read in ("extent", "intent"):
            raise FormatError(f"no value assigned to proposition {key!r}")
        raise FormatError(f"no relation for connective {key!r}")  # a relation's tuples

    def _input(self, read, key, seen):
        """The index of the input, added if new; seen identifies it."""
        i = self.index.get(seen)
        if i is None:
            i = self.index[seen] = len(self.reads)
            self.reads.append(read)
            self.keys.append(key)
        return i

    def _var(self, var, scope):
        # scope and the inputs go by (sort, name), as Var equality does
        sort, name = var.sort, var.name
        k = scope.get((sort, name))
        if k is not None:
            return k
        read = sort if sort in ("W", "U") else "Q"
        return -1 - self._input(read, var, (None, sort, name))

    def _walk(self, f, scope, inner):
        kind = type(f)  # the formula classes are final: no subclass to dispatch on
        if kind is FAnd or kind is FImp:
            left = self._walk(f.left, scope, inner)
            right = self._walk(f.right, scope, inner)
            return ("&" if kind is FAnd else ">", left, right)
        if kind is Forall or kind is Exists:
            k = self.quantifiers = self.quantifiers + 1
            var = f.var
            bound = (var.sort, var.name)
            outer = scope.get(bound)
            scope[bound] = k
            body = self._walk(f.body, scope, k)
            if outer is None:
                del scope[bound]
            else:
                scope[bound] = outer
            return ("A" if kind is Forall else "E", k, var.sort == "W", body)
        if kind is NAtom:
            return ("N", self._var(f.x, scope), self._var(f.y, scope))
        if kind is RAtom:
            args = tuple([self._var(v, scope) for v in f.args])
            rows = None
            if args.count(inner) == 1:
                sorts = tuple(["W" if v.sort == "W" else "U" for v in f.args])
                read = ("row" if len(args) <= 2 else "rows", args.index(inner))
                rows = self._input(read, (f.name, sorts), (read, f.name, sorts))
            return ("R", self._input("tuples", f.name, ("tuples", f.name)), args, rows)
        if kind is PredAtom:
            read = "extent" if f.kind == "ext" else "intent"
            return ("P", self._input(read, f.prop, (read, f.prop)), self._var(f.var, scope))
        if kind is Eq:
            return ("=", self._var(f.left, scope), self._var(f.right, scope))
        self.bad.append(repr(f))  # the text, as the node may be the sentence itself
        return ("!", len(self.bad) - 1)


def _value(read, key, valuation, relations, env, pol):
    """What an input of a _Sentence holds in the model, or _ABSENT."""
    if read == "tuples":
        return getattr(relations.get(key), "tuples", _ABSENT)
    if read in ("extent", "intent"):
        return getattr(valuation.get(key), read, _ABSENT)
    if read in ("W", "U", "Q"):
        return _point(env.get(key, _ABSENT), key.sort, pol)
    name, sorts = key
    rel = relations.get(name)
    if getattr(rel, "sorts", None) != sorts:
        return _ABSENT
    rows = rel.rows[read[1]]
    return rows.get(()) if read[0] == "row" else rows


# Per generated function: nested statements before the rest of a sentence
# goes to a function of its own (CPython allows 100 indentation levels),
# and parentheses in one expression (it allows 200 nested ones).
_MAX_DEPTH = 40
_MAX_PARENS = 150


def _emit_sentence(key):
    """Source of f0 (and helpers) evaluating a _Sentence shape.

    key is _Sentence.key plus None, for an f0(fns, M, E, S) that reads
    its inputs from the model M and env E through the keys of the
    _Sentence S (_reader), or the indices of the absent inputs, for an
    f0 that takes them as values X along with the polarity's rows, cols,
    sizes and full sets, and fail, which raises an input's error.  A
    quantifier whose body is a mask over its variable k (below) is one
    expression: the mask == the full set (forall) or != 0 (exists).  If
    the body reads at most one other quantified variable v, f0 computes
    that value first, once per call, children first: a bool if it reads
    none, else a mask m over v's points, and the quantifier reads m >> v & 1.
    In the body, an atom that reads k is a mask lekit holds (N(v, k) is
    rows[v], N(k, v) cols[v], P(k) the extent or intent, k = v is 1 << v,
    and an R atom with k at exactly one coordinate j a row of its row
    index for head coordinate j); a part that does not read k is the full
    set or 0; & is &, and a -> b is full ^ a | b.
    Every other quantifier, and all of them in a sentence with an absent
    input or a node that is not first order, becomes a for loop over the
    points of its sort that breaks at the first witness (exists) or
    counterexample (forall), leaving the value in r; so does one whose body
    holds an ill-sorted atom or an R atom repeating k.  Quantifier-free parts
    between loops become one expression each, with Python's short-circuit
    and/or, and an atom reading an absent input a call raising its error.
    A part nested past MAX_LOOPS loops or _MAX_DEPTH statements moves to a
    function of its own, called with the quantified variables in scope and
    the masks it reads.
    """
    return [line for lines in _SentenceWriter(key).functions for line in lines]


class _SentenceWriter:
    """The functions of one _emit_sentence call, as lists of lines."""

    BASE = "fns, rows, cols, nw, nu, fw, fu, X, fail"

    def __init__(self, key):
        shape, reads, absent = key
        self.kinds = [_KINDS.get(read) for read in reads]
        self.ninputs = len(reads)
        self.absent = set(absent or ())
        self.exprs = {}  # id(node) -> expression or None
        self.free = {}  # id(node) -> the quantified variables free in it
        self.sorted = {}  # id(node) -> its atoms outside quantifiers are well-sorted
        self.is_w = {-1 - i: kind for i, kind in enumerate(self.kinds)}  # variable -> sort
        self.bad = False
        self._scan(shape)
        self.maskable = not absent and not self.bad
        self.stored = set()  # quantifiers f0 computes first
        self.computed = []  # f0's lines computing them
        unpack = f"    {''.join(f'X{i}, ' for i in range(self.ninputs))}= X"
        self.prologue = [unpack] if self.ninputs else []
        if absent is None:
            top = ["def f0(fns, M, E, S):"] + _reader(reads)
        else:
            top = [f"def f0({self.BASE}):"] + self.prologue
        head = len(top)
        self.functions = [top]
        root = self.expr(shape)
        if root is None:
            self.stmt(top, shape, 1, 0, ())
        if root in [f"m{k}" for k in self.stored]:  # a quantifier's test: a bool
            top.append(f"    return {root}")
        else:
            top.append(f"    return bool({root or 'r'})")
        top[head:head] = self.computed
        if absent is None and (self.bad or len(self.functions) > 1):
            # fail, and the inputs as values for the other functions
            values = "".join(f"X{i}, " for i in range(self.ninputs))
            top[head:head] = ["    fail = S.fail", f"    X = ({values})"]
        for lines in self.functions:  # one range per sort a function loops over
            start = head if lines is top else 1 + len(self.prologue)
            text = "\n".join(lines)
            lines[start:start] = [f"    {r} = range({n})" for r, n in _RANGES if f"in {r}:" in text]

    def _scan(self, node):
        """Fill free, sorted and is_w for node's subtree; note a "!" node."""
        op = node[0]
        ok = True
        if op in ("&", ">"):
            free = self._scan(node[1]) | self._scan(node[2])
            ok = self.sorted[id(node[1])] and self.sorted[id(node[2])]
        elif op in ("A", "E"):
            self.is_w[node[1]] = node[2]
            free = self._scan(node[3]) - {node[1]}
        else:
            xs = _atom_vars(node)
            free = frozenset(x for x in xs if x > 0)
            sorts = [self.is_w[x] for x in xs]
            if op == "N":
                ok = sorts == [True, False]
            elif op == "=":
                ok = sorts[0] == sorts[1]
            elif op == "P":
                ok = sorts[0] == self.kinds[node[1]]
            elif op == "!":
                ok, self.bad = False, True
            # an R atom's sorts are checked with its row index input
        self.free[id(node)] = free
        self.sorted[id(node)] = ok
        return free

    def expr(self, node):
        """node as one expression, or None if it needs a loop or is long."""
        if id(node) not in self.exprs:
            self.exprs[id(node)] = self._expr(node)
        return self.exprs[id(node)]

    def _expr(self, node):
        op = node[0]
        if op in ("A", "E"):
            return self._quantifier(node)
        if op in ("&", ">"):
            a, b = self.expr(node[1]), self.expr(node[2])
            if a is None or b is None or (a + b).count("(") > _MAX_PARENS:
                return None
            return f"({a} and {b})" if op == "&" else f"(not {a} or {b})"
        if op == "!":
            return f"fail({self.ninputs + node[1]})"
        xs = _atom_vars(node)
        reads = ([node[1]] if op in ("R", "P") else []) + [-1 - x for x in xs if x < 0]
        missing = [i for i in reads if i in self.absent]
        if missing:
            return f"fail({missing[0]})"
        v = [_name(x) for x in xs]
        if op == "N":
            return f"(rows[{v[0]}] >> {v[1]} & 1)"
        if op == "=":
            return f"({v[0]} == {v[1]})"
        if op == "R":
            return f"(({''.join(x + ', ' for x in v)}) in X{node[1]})"
        return f"(X{node[1]} >> {v[0]} & 1)"

    def _quantifier(self, node):
        op, k, is_w, body = node
        others = self.free[id(node)]
        # the loop over the one other variable computes what does not read it first
        m = self.mask(body, k, min(others) if len(others) == 1 else None) if self.maskable else None
        if m is None:
            return None
        test = f"{m} == {'fw' if is_w else 'fu'}" if op == "A" else f"{m} != 0"
        if len(others) > 1:
            return f"({test})"
        self.stored.add(k)
        if not others:
            self.computed.append(f"    m{k} = {test}")
            return f"m{k}"
        (v,) = others
        self.computed += [
            f"    m{k} = 0",
            f"    for v{v} in {'rw' if self.is_w[v] else 'ru'}:",
            f"        if {test}:",
            f"            m{k} |= 1 << v{v}",
        ]
        return f"(m{k} >> v{v} & 1)"

    def mask(self, node, k, v=None):
        """node as a mask over the points of variable k, or None.

        Inside f0's loop over variable v, a part that does not read v is
        computed before the loop, into a local t<n>."""
        if not self.sorted[id(node)]:
            return None
        full = "fw" if self.is_w[k] else "fu"
        op = node[0]
        if v is not None and v not in self.free[id(node)] and op in ("&", ">"):
            return self._before_loop(self.mask(node, k))
        if k not in self.free[id(node)]:
            e = self.expr(node)
            return None if e is None else f"({full} if {e} else 0)"
        if op in ("&", ">"):
            a, b = node[1], node[2]
            scalar_a = k not in self.free[id(a)]
            scalar_b = k not in self.free[id(b)]
            # a -> b inside the loop is t | b, t = full ^ a before it
            early = v is not None and op == ">" and not scalar_a and v not in self.free[id(a)]
            ea = self.expr(a) if scalar_a else self.mask(a, k, None if early else v)
            eb = self.expr(b) if scalar_b else self.mask(b, k, v)
            if ea is None or eb is None or (ea + eb).count("(") > _MAX_PARENS:
                return None
            if op == "&":
                if scalar_a or scalar_b:
                    return f"({eb} if {ea} else 0)" if scalar_a else f"({ea} if {eb} else 0)"
                return eb if ea == full else ea if eb == full else f"({ea} & {eb})"
            if scalar_a:
                return f"({eb} if {ea} else {full})"
            if scalar_b:
                return f"({full} if {eb} else {full} ^ {ea})"
            if ea == full:
                return eb
            if early:
                return f"({self._before_loop(f'{full} ^ {ea}')} | {eb})"
            return f"({full} ^ {ea} | {eb})"
        if op in ("A", "E"):
            # a mask over k when f0 computes it with k as its one variable
            return f"m{node[1]}" if self.expr(node) and self.free[id(node)] == {k} else None
        xs = _atom_vars(node)
        if op == "R":
            rows = node[3]
            if rows is None:  # k repeated
                return None
            j = xs.index(k)
            rest = [_name(x) for x in xs[:j] + xs[j + 1 :]]
            last = rest[-1] if rest else "0"
            if len(rest) <= 1:  # the one row, or None
                return f"(X{rows}[{last}] if X{rows} else 0)"
            prefix = f"({''.join(x + ', ' for x in rest[:-1])})"
            return f"(X{rows}[{prefix}][{last}] if {prefix} in X{rows} else 0)"
        if op == "P":
            return f"X{node[1]}"
        x, y = xs
        if op == "N":
            return f"rows[{_name(x)}]" if y == k else f"cols[{_name(y)}]"
        return full if x == y else f"(1 << {_name(y if x == k else x)})"

    def _before_loop(self, e):
        """A local f0 sets to e before the loop being written, or None."""
        if e is None:
            return None
        self.computed.append(f"    t{len(self.computed)} = {e}")
        return f"t{len(self.computed) - 1}"

    def stmt(self, lines, node, depth, loops, scope):
        """Append lines leaving node's value in r, at indentation depth."""
        pad = "    " * depth
        e = self.expr(node)
        op = node[0]
        if e is not None:
            lines.append(f"{pad}r = {e}")
        elif depth > _MAX_DEPTH or op in ("A", "E") and loops == MAX_LOOPS:
            args = "".join(f", v{q}" for q in scope)
            args += "".join(f", m{k}" for k in sorted(self._stored_in(node)))
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
            lines.append(f"{pad}for v{k} in {'rw' if is_w else 'ru'}:")
            if b is None:
                self.stmt(lines, body, depth + 1, loops + 1, scope + (k,))
                lines.append(f"{pad}    if {neg}r:")
            else:
                lines += [f"{pad}    if {neg}{b}:", f"{pad}        r = {op == 'E'}"]
            lines.append(f"{pad}        break")

    def _stored_in(self, node):
        """The quantifiers under node (itself included) that f0 computes first."""
        todo, found = [node], set()
        while todo:
            n = todo.pop()
            if n[0] in ("&", ">"):
                todo += n[1:]
            elif n[0] in ("A", "E"):
                todo.append(n[3])
                if n[1] in self.stored:
                    found.add(n[1])
        return found


def _reader(reads):
    """f0's lines reading the inputs, by reads (see _Sentence), from the
    model M and env E through the keys S.keys: a relation's tuples, row
    index or one row, a proposition's extent or intent, a free variable's
    point.  An input that is missing, of the wrong kind or not a point of
    its sort hands the call over to S.absent, which resolves the inputs
    again and runs the code keyed with the absent ones."""
    lines = [
        "    F = M.frame",
        "    P = F.polarity",
        "    rows, cols, nw, nu, fw, fu = P.rows, P.cols, P.nw, P.nu, P.full_w, P.full_u",
    ]
    if not reads:
        return lines
    keys, fetch, checks, rows = [], [], [], []
    for i, read in enumerate(reads):
        keys.append(f"K{i}")
        if read == "tuples":
            fetch.append(f"X{i} = R[K{i}].tuples")
        elif read in ("extent", "intent"):
            fetch.append(f"X{i} = V[K{i}].{read}")
        elif read in ("W", "U", "Q"):
            fetch.append(f"X{i} = E[K{i}]")
            size = "nw" if read == "W" else "nu" if read == "U" else "0"
            checks.append(f"type(X{i}) is int and 0 <= X{i} < {size}")
        else:  # a row index of a relation of these sorts, or its one row
            keys[-1] = f"(K{i}, T{i})"
            fetch.append(f"X{i} = R[K{i}]")
            checks.append(f"X{i}.sorts == T{i}")
            one = ".get(())" if read[0] == "row" else ""
            rows.append(f"    X{i} = X{i}.rows[{read[1]}]{one}")
    lines += [f"    {''.join(k + ', ' for k in keys)}= S.keys", "    try:"]
    lines += ["        V = M.valuation", "        R = F.relations"]
    lines += ["        " + line for line in fetch]
    if checks:
        lines.append(f"        ok = {' and '.join(checks)}")
    lines += [
        "    except (AttributeError, KeyError, TypeError):",
        "        return S.absent(M, E)",
    ]
    if checks:
        lines += ["    if not ok:", "        return S.absent(M, E)"]
    return lines + rows


def _atom_vars(node):
    """The variables an atom node reads, in order."""
    op = node[0]
    return node[2] if op == "R" else node[2:3] if op == "P" else () if op == "!" else node[1:3]


def _name(x):
    return f"v{x}" if x > 0 else f"X{-1 - x}"


def format_fo(fof):
    """Prefix text rendering, with forall_w / forall_u quantifiers."""
    try:
        return _format_fo(fof)
    except RecursionError:
        raise FormatError("input is nested too deeply") from None


def _format_fo(fof):
    if isinstance(fof, NAtom):
        return f"(N {fof.x.name} {fof.y.name})"
    if isinstance(fof, RAtom):
        return f"(R_{fof.name} {' '.join(v.name for v in fof.args)})"
    if isinstance(fof, PredAtom):
        return f"(P_{fof.kind}_{fof.prop} {fof.var.name})"
    if isinstance(fof, Eq):
        return f"(= {fof.left.name} {fof.right.name})"
    if isinstance(fof, FAnd):
        return f"(and {_format_fo(fof.left)} {_format_fo(fof.right)})"
    if isinstance(fof, FImp):
        return f"(-> {_format_fo(fof.left)} {_format_fo(fof.right)})"
    if isinstance(fof, Forall):
        q = "forall_w" if fof.var.sort == "W" else "forall_u"
        return f"({q} {fof.var.name} {_format_fo(fof.body)})"
    if isinstance(fof, Exists):
        q = "exists_w" if fof.var.sort == "W" else "exists_u"
        return f"({q} {fof.var.name} {_format_fo(fof.body)})"
    raise TypeError(f"not a first order formula: {fof!r}")
