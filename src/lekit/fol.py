"""Standard translation into two-sorted first order logic.

Variables are W-sorted or U-sorted.  Atoms are the incidence N(x, y),
relation atoms R_c(head, args...), extent/intent predicates for
propositions, and equality.  The translation of a formula comes in a
W-sorted version (membership in the extent) and a U-sorted version
(membership in the intent); a sequent has three interchangeable shapes.
"""

from __future__ import annotations

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
    """Tarskian evaluation over the model's frame and valuation."""
    pol = model.frame.polarity
    env = env or {}

    def value(var):
        try:
            return env[var]
        except KeyError:
            raise SortError(f"unbound variable {var.name}") from None

    if isinstance(fof, NAtom):
        return pol.n(value(fof.x), value(fof.y))
    if isinstance(fof, RAtom):
        rel = model.frame.relations.get(fof.name)
        if rel is None:
            raise FormatError(f"no relation for connective {fof.name!r}")
        return tuple(value(v) for v in fof.args) in rel.tuples
    if isinstance(fof, PredAtom):
        concept = model.valuation.get(fof.prop)
        if concept is None:
            raise FormatError(f"no value assigned to proposition {fof.prop!r}")
        mask = concept.extent if fof.kind == "ext" else concept.intent
        return bool(mask >> value(fof.var) & 1)
    if isinstance(fof, Eq):
        return value(fof.left) == value(fof.right)
    if isinstance(fof, FAnd):
        return eval_fo(model, fof.left, env) and eval_fo(model, fof.right, env)
    if isinstance(fof, FImp):
        return not eval_fo(model, fof.left, env) or eval_fo(model, fof.right, env)
    if isinstance(fof, (Forall, Exists)):
        size = pol.nw if fof.var.sort == "W" else pol.nu
        results = (
            eval_fo(model, fof.body, {**env, fof.var: v}) for v in range(size)
        )
        return all(results) if isinstance(fof, Forall) else any(results)
    raise TypeError(f"not a first order formula: {fof!r}")


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
