"""Standard translation into two-sorted first order logic.

Variables are W-sorted or U-sorted.  Atoms are the incidence N(x, y),
relation atoms R_c(head, args...), extent/intent predicates for
propositions, and equality.  The translation of a formula comes in a
W-sorted version (membership in the extent) and a U-sorted version
(membership in the intent); a sequent has three interchangeable shapes.

eval_fo compiles a formula once into nested closures over a list of
variable slots, one per quantifier and one per free variable, so that no
node visit dispatches on node types or hashes variables.  The compiled
program is cached by the identity of the formula object and dropped when
that object is collected; it reads the model's incidence rows, relations
and valuation at each call, so one sentence serves every model.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

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
    compiled once into closures and cached by identity, so evaluating one
    sentence object under many models pays the compilation once.
    """
    free, size, run = _program(fof)
    slots = [None] * size
    if free:
        env = env or {}
        for var, slot in free:
            slots[slot] = env.get(var, _UNBOUND)
    pol = model.frame.polarity
    return run((pol.rows, pol.nw, pol.nu, model.frame.relations, model.valuation), slots)


# id(sentence) -> (weak reference to the sentence, compiled program); an
# entry is dropped when its sentence is collected.
_PROGRAMS = {}
_UNBOUND = object()


def _program(fof):
    key = id(fof)
    entry = _PROGRAMS.get(key)
    if entry is not None and entry[0]() is fof:
        return entry[1]
    program = _compile_fo(fof)
    try:
        ref = weakref.ref(fof, lambda _: _PROGRAMS.pop(key, None))
    except TypeError:  # no weak reference, so no way to see it collected
        return program
    _PROGRAMS[key] = (ref, program)
    return program


def _compile_fo(fof):
    """(free, size, run) for a first order formula.

    run(ctx, slots) evaluates it with ctx = (rows, |W|, |U|, relations,
    valuation) read from the model at call time, and slots a list of size
    point indices: each quantifier owns one slot, and (var, slot) in free
    gives the slots of the free variables.  An unbound free variable holds
    _UNBOUND; like a missing relation or proposition or a node that is not
    first order, it raises only when evaluation reaches it.
    """
    free = {}
    size = 0

    def new_slot():
        nonlocal size
        size += 1
        return size - 1

    def checker(vars_, scope):
        """The slots of vars_, and a check raising on unbound free ones (or None)."""
        slots, loose = [], []
        for v in vars_:
            if v in scope:
                slots.append(scope[v])
                continue
            if v not in free:
                free[v] = new_slot()
            slots.append(free[v])
            loose.append((free[v], v.name))

        def check(s):
            for slot, name in loose:
                if s[slot] is _UNBOUND:
                    raise SortError(f"unbound variable {name}")

        return tuple(slots), check if loose else None

    def comp(f, scope):
        if isinstance(f, NAtom):
            (x, y), check = checker((f.x, f.y), scope)

            def run(c, s):
                if check:
                    check(s)
                return bool(c[0][s[x]] >> s[y] & 1)
        elif isinstance(f, RAtom):
            args, check = checker(f.args, scope)
            name = f.name

            if len(args) == 2:
                head, arg = args

                def run(c, s):
                    rel = c[3].get(name)
                    if rel is None:
                        raise FormatError(f"no relation for connective {name!r}")
                    if check:
                        check(s)
                    return (s[head], s[arg]) in rel.tuples
            else:
                def run(c, s):
                    rel = c[3].get(name)
                    if rel is None:
                        raise FormatError(f"no relation for connective {name!r}")
                    if check:
                        check(s)
                    return tuple([s[a] for a in args]) in rel.tuples
        elif isinstance(f, PredAtom):
            (x,), check = checker((f.var,), scope)
            prop, ext = f.prop, f.kind == "ext"

            def run(c, s):
                concept = c[4].get(prop)
                if concept is None:
                    raise FormatError(f"no value assigned to proposition {prop!r}")
                if check:
                    check(s)
                return bool((concept.extent if ext else concept.intent) >> s[x] & 1)
        elif isinstance(f, Eq):
            (a, b), check = checker((f.left, f.right), scope)

            def run(c, s):
                if check:
                    check(s)
                return s[a] == s[b]
        elif isinstance(f, FAnd):
            left, right = comp(f.left, scope), comp(f.right, scope)

            def run(c, s):
                return left(c, s) and right(c, s)
        elif isinstance(f, FImp):
            left, right = comp(f.left, scope), comp(f.right, scope)

            def run(c, s):
                return not left(c, s) or right(c, s)
        elif isinstance(f, (Forall, Exists)):
            slot = new_slot()
            body = comp(f.body, {**scope, f.var: slot})
            sort = 1 if f.var.sort == "W" else 2  # index of the sort's size in ctx
            if isinstance(f, Forall):
                def run(c, s):
                    for v in range(c[sort]):
                        s[slot] = v
                        if not body(c, s):
                            return False
                    return True
            else:
                def run(c, s):
                    for v in range(c[sort]):
                        s[slot] = v
                        if body(c, s):
                            return True
                    return False
        else:
            message = f"not a first order formula: {f!r}"

            def run(c, s):
                raise TypeError(message)
        return run

    run = comp(fof, {})
    return tuple(free.items()), size, run


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
