"""Standard translation into two-sorted first order logic.

Variables are W-sorted or U-sorted.  Atoms are the incidence N(x, y),
relation atoms R_c(head, args...), extent/intent predicates for
propositions, and equality.  The translation of a formula comes in a
W-sorted version (membership in the extent) and a U-sorted version
(membership in the intent); a sequent has three interchangeable shapes.

eval_fo runs a formula as generated code.  Its relation, proposition and
free variable names are lifted out as inputs read from the model at each
call, and the code for its shape is compiled once and cached by
emit.compiled, so formulas that differ only in names, or one translated
again, share it.  A quantifier whose body reads at most one other
quantified variable v is a bit mask over v's points (a bool if it reads
none), computed once per call from the masks lekit holds: the rows and
columns of N, the extents and intents, and the relations' row indices.
Every subformula of a standard translation has one free variable, so with
unary connectives the whole sentence is O(quantifiers x n) big-int
operations.  Other quantifiers are for loops that stop at the first
witness or counterexample, with short-circuit expressions between them.
Formula objects are looked up by identity first, until collected, and
keep their code from their first call with every input present.
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
    if isinstance(phi, And) and sort == "W":
        return FAnd(_st(phi.left, sig, "W", var, gen), _st(phi.right, sig, "W", var, gen))
    if isinstance(phi, Or) and sort == "U":
        return FAnd(_st(phi.left, sig, "U", var, gen), _st(phi.right, sig, "U", var, gen))
    if isinstance(phi, Conn):
        conn = sig.get(phi.name)
        if conn is None:
            raise FormatError(f"unknown connective {phi.name!r}")
        head, *coord_sorts = connective_sorts(conn)
        if sort == head:
            fresh = [gen.fresh(s) for s in coord_sorts]
            ante = _conj(
                [_st(a, sig, v.sort, v, gen) for a, v in zip(phi.args, fresh)]
            )
            return _foralls(fresh, _imp(ante, RAtom(phi.name, (var,) + tuple(fresh))))
    elif not isinstance(phi, (And, Or)):
        raise TypeError(f"not a formula: {phi!r}")
    # the other sort: closed through N from the translation at the sort
    # where the clause is direct
    if sort == "U":
        x = gen.fresh("W")
        return Forall(x, FImp(_st(phi, sig, "W", x, gen), NAtom(x, var)))
    y = gen.fresh("U")
    return Forall(y, FImp(_st(phi, sig, "U", y, gen), NAtom(var, y)))


def standard_translate(phi, sig, sort="W"):
    """The W-sorted (extent) or U-sorted (intent) translation of phi.

    The free variable is x (sort W) or y (sort U).
    """
    validate_formula(phi, sig)
    if sort not in ("W", "U"):
        raise SortError(f"sort must be 'W' or 'U', got {sort!r}")
    return _st(phi, sig, sort, Var(sort, "x" if sort == "W" else "y"), VarGen())


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
    object.
    An unbound free variable, or one bound to a value that is not a point
    of its sort, like a missing relation or proposition or a node that is
    not first order, raises only when evaluation reaches it.
    """
    sentence = _sentence(fof)
    frame, valuation, env = model.frame, model.valuation, env or {}
    pol, relations = frame.polarity, frame.relations
    values = [
        getattr(valuation.get(key), attr, _ABSENT) if source == 1
        else getattr(relations.get(key), attr, _ABSENT) if source == 0
        else _rows(relations.get(key), *attr) if source == 3
        else _point(env.get(key, _ABSENT), key.sort, pol)
        for source, key, attr in sentence.inputs
    ]
    fail = sentence.fail
    if _ABSENT in values:
        absent = tuple(i for i, v in enumerate(values) if v is _ABSENT)
        fns = compiled(_emit_sentence, sentence.key + (absent,))
        fail = partial(sentence.fail, env=env)
    elif sentence.fns is not None:
        fns = sentence.fns
    else:
        fns = sentence.fns = compiled(_emit_sentence, sentence.key + ((),))
    return fns[0](fns, pol.rows, pol.cols, pol.nw, pol.nu, pol.full_w, pol.full_u, values, fail)


def _rows(rel, j, sorts):
    """A relation's row index for head coordinate j, if its sorts are sorts."""
    return rel.rows[j] if getattr(rel, "sorts", None) == sorts else _ABSENT


def _point(value, sort, pol):
    """value if it is a point of the sort, else _ABSENT."""
    size = pol.nw if sort == "W" else pol.nu if sort == "U" else 0
    return value if isinstance(value, int) and 0 <= value < size else _ABSENT


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
    the relations (0, name, "tuples"); from the valuation (1, proposition,
    "extent" or "intent"); from env (2, Var, None), absent unless a point
    of the variable's sort; and for an R atom that reads its innermost
    quantifier's variable at exactly one coordinate j, the relation's row
    index for head coordinate j (3, name, (j, sorts)), absent unless the
    relation's sorts are those of the atom's variables.  shape is the
    formula as nested tuples with each input replaced by its index i and
    each quantifier by its number k; a variable is k, or -1 - i when free.
    Nodes are ("N", x, y), ("=", x, y), ("R", i, vars, row index input or
    None), ("P", i, x), ("&", a, b), (">", a, b), ("A" or "E", k, is_w,
    body), and ("!", j) for the j-th node that is not first order.  key is
    (shape, kinds), where kinds[i] says whether input i is a W-sorted free
    variable or extent (True), a U-sorted one or intent (False), or a
    relation (None), so the code can tell well-sorted atoms.  Equal keys
    share their code, so a sentence translated again is served without
    compiling.  fns is that code, from the first call with every input
    present; until then it is None.
    """

    def __init__(self, fof):
        self.inputs = {}
        self.bad = []
        self.quantifiers = 0
        shape = self._walk(fof, {}, 0)
        self.inputs = list(self.inputs)
        kinds = tuple(
            attr == "extent" if source == 1 else key.sort == "W" if source == 2 else None
            for source, key, attr in self.inputs
        )
        self.key = (shape, kinds)
        self.fns = None

    def fail(self, i, env=None):
        """Raise the error of absent input i, or of bad node i - len(inputs)."""
        if i >= len(self.inputs):
            raise TypeError(f"not a first order formula: {self.bad[i - len(self.inputs)]}")
        source, key, _ = self.inputs[i]
        if source == 2:
            if env is not None and key in env:
                raise SortError(
                    f"variable {key.name} is bound to {env[key]!r}, "
                    f"not a point of sort {key.sort}"
                )
            raise SortError(f"unbound variable {key.name}")
        if source in (0, 3):
            raise FormatError(f"no relation for connective {key!r}")
        raise FormatError(f"no value assigned to proposition {key!r}")

    def _input(self, source, key, attr):
        return self.inputs.setdefault((source, key, attr), len(self.inputs))

    def _var(self, var, scope):
        return scope[var] if var in scope else -1 - self._input(2, var, None)

    def _walk(self, f, scope, inner):
        if isinstance(f, (FAnd, FImp)):
            left = self._walk(f.left, scope, inner)
            right = self._walk(f.right, scope, inner)
            return ("&" if isinstance(f, FAnd) else ">", left, right)
        if isinstance(f, (Forall, Exists)):
            k = self.quantifiers = self.quantifiers + 1
            body = self._walk(f.body, {**scope, f.var: k}, k)
            return ("A" if isinstance(f, Forall) else "E", k, f.var.sort == "W", body)
        if isinstance(f, (NAtom, Eq)):
            a, b = (f.x, f.y) if isinstance(f, NAtom) else (f.left, f.right)
            return ("N" if isinstance(f, NAtom) else "=", self._var(a, scope), self._var(b, scope))
        if isinstance(f, RAtom):
            args = tuple(self._var(v, scope) for v in f.args)
            rows = None
            if args.count(inner) == 1:
                sorts = tuple("W" if v.sort == "W" else "U" for v in f.args)
                rows = self._input(3, f.name, (args.index(inner), sorts))
            return ("R", self._input(0, f.name, "tuples"), args, rows)
        if isinstance(f, PredAtom):
            attr = "extent" if f.kind == "ext" else "intent"
            return ("P", self._input(1, f.prop, attr), self._var(f.var, scope))
        self.bad.append(repr(f))  # the text, as the node may be the sentence itself
        return ("!", len(self.bad) - 1)


# Per generated function: nested statements before the rest of a sentence
# goes to a function of its own (CPython allows 100 indentation levels),
# and parentheses in one expression (it allows 200 nested ones).
_MAX_DEPTH = 40
_MAX_PARENS = 150


def _emit_sentence(key):
    """Source of f0 (and helpers) evaluating a _Sentence shape.

    key is _Sentence.key plus the indices of the absent inputs.  A
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
        shape, self.kinds, absent = key
        self.ninputs = len(self.kinds)
        self.absent = set(absent)
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
        top = [f"def f0({self.BASE}):"] + self.prologue
        self.functions = [top]
        root = self.expr(shape)
        if root is None:
            self.stmt(top, shape, 1, 0, ())
        top.append(f"    return bool({root or 'r'})")
        top[len(self.prologue) + 1 : len(self.prologue) + 1] = self.computed

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
        m = self.mask(body, k) if self.maskable else None
        if m is None:
            return None
        test = f"{m} == {'fw' if is_w else 'fu'}" if op == "A" else f"{m} != 0"
        others = self.free[id(node)]
        if len(others) > 1:
            return f"({test})"
        self.stored.add(k)
        if not others:
            self.computed.append(f"    m{k} = {test}")
            return f"m{k}"
        (v,) = others
        self.computed += [
            f"    m{k} = 0",
            f"    for v{v} in range({'nw' if self.is_w[v] else 'nu'}):",
            f"        if {test}:",
            f"            m{k} |= 1 << v{v}",
        ]
        return f"(m{k} >> v{v} & 1)"

    def mask(self, node, k):
        """node as a mask over the points of variable k, or None."""
        if not self.sorted[id(node)]:
            return None
        full = "fw" if self.is_w[k] else "fu"
        if k not in self.free[id(node)]:
            e = self.expr(node)
            return None if e is None else f"({full} if {e} else 0)"
        op = node[0]
        if op in ("&", ">"):
            a, b = node[1], node[2]
            scalar_a = k not in self.free[id(a)]
            scalar_b = k not in self.free[id(b)]
            ea = self.expr(a) if scalar_a else self.mask(a, k)
            eb = self.expr(b) if scalar_b else self.mask(b, k)
            if ea is None or eb is None or (ea + eb).count("(") > _MAX_PARENS:
                return None
            if op == "&":
                if scalar_a or scalar_b:
                    return f"({eb} if {ea} else 0)" if scalar_a else f"({ea} if {eb} else 0)"
                return f"({ea} & {eb})"
            if scalar_a:
                return f"({eb} if {ea} else {full})"
            if scalar_b:
                return f"({full} if {eb} else {full} ^ {ea})"
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
            prefix = f"({''.join(x + ', ' for x in rest[:-1])})"
            last = rest[-1] if rest else "0"
            return f"(X{rows}[{prefix}][{last}] if {prefix} in X{rows} else 0)"
        if op == "P":
            return f"X{node[1]}"
        x, y = xs
        if op == "N":
            return f"rows[{_name(x)}]" if y == k else f"cols[{_name(y)}]"
        return full if x == y else f"(1 << {_name(y if x == k else x)})"

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
            lines.append(f"{pad}for v{k} in range({'nw' if is_w else 'nu'}):")
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
