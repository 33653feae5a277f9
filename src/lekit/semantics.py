"""Valuations, satisfaction and validity over frames.

A valuation assigns a concept to each proposition.  Every formula then
denotes a concept: conjunction intersects extents, disjunction intersects
intents, and connectives go through the 0-sections of their relations.
A model validates a sequent when the left extent is contained in the
right extent (equivalently, the right intent in the left intent); a frame
validates it when every valuation of the occurring propositions does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bitset import bits
from .errors import CapExceededError, FormatError
from .frame import section_zero
from .polarity import Concept, enumerate_concepts
from .syntax import And, Bot, Conn, Or, Prop, Top, props_of, validate_formula

DEFAULT_VALUATION_CAP = 10**6


class Model:
    def __init__(self, frame, valuation):
        self.frame = frame
        pol = frame.polarity
        for p, c in valuation.items():
            if not (pol.stable_w(c.extent) and pol.up(c.extent) == c.intent):
                raise FormatError(f"valuation of {p!r} is not a concept")
        self.valuation = dict(valuation)


def eval_formula(model, phi):
    """The concept denoted by phi in the model."""
    pol = model.frame.polarity
    if isinstance(phi, Prop):
        try:
            return model.valuation[phi.name]
        except KeyError:
            raise FormatError(f"no value assigned to proposition {phi.name!r}") from None
    if isinstance(phi, Top):
        return Concept(pol.full_w, pol.up(pol.full_w))
    if isinstance(phi, Bot):
        return Concept(pol.down(pol.full_u), pol.full_u)
    if isinstance(phi, And):
        l = eval_formula(model, phi.left)
        r = eval_formula(model, phi.right)
        ext = l.extent & r.extent
        return Concept(ext, pol.up(ext))
    if isinstance(phi, Or):
        l = eval_formula(model, phi.left)
        r = eval_formula(model, phi.right)
        itn = l.intent & r.intent
        return Concept(pol.down(itn), itn)
    if isinstance(phi, Conn):
        conn = model.frame.signature.get(phi.name)
        if conn is None:
            raise FormatError(f"unknown connective {phi.name!r}")
        rel = model.frame.relations[phi.name]
        vals = [eval_formula(model, a) for a in phi.args]
        if conn.family == "G":
            args = tuple(
                v.intent if e == "1" else v.extent
                for v, e in zip(vals, conn.order_type)
            )
            ext = section_zero(rel, args)
            return Concept(ext, pol.up(ext))
        args = tuple(
            v.extent if e == "1" else v.intent
            for v, e in zip(vals, conn.order_type)
        )
        itn = section_zero(rel, args)
        return Concept(pol.down(itn), itn)
    raise TypeError(f"not a formula: {phi!r}")


def _w_index(pol, w):
    return pol.w_index(w) if isinstance(w, str) else w


def _u_index(pol, u):
    return pol.u_index(u) if isinstance(u, str) else u


def satisfies(model, w, phi):
    """True when the W point w is in the extent of phi."""
    w = _w_index(model.frame.polarity, w)
    return bool(eval_formula(model, phi).extent >> w & 1)


def cosatisfies(model, u, phi):
    """True when the U point u is in the intent of phi."""
    u = _u_index(model.frame.polarity, u)
    return bool(eval_formula(model, phi).intent >> u & 1)


def satisfies_recursive(model, w, phi):
    """satisfies computed by the pointwise recursive clauses."""
    return _sat(model, _w_index(model.frame.polarity, w), phi)


def cosatisfies_recursive(model, u, phi):
    """cosatisfies computed by the pointwise recursive clauses."""
    return _cosat(model, _u_index(model.frame.polarity, u), phi)


def _sat(model, w, phi):
    pol = model.frame.polarity
    if isinstance(phi, Prop):
        return bool(model.valuation[phi.name].extent >> w & 1)
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return pol.rows[w] == pol.full_u
    if isinstance(phi, And):
        return _sat(model, w, phi.left) and _sat(model, w, phi.right)
    if isinstance(phi, (Or, Conn)):
        conn = model.frame.signature.get(phi.name) if isinstance(phi, Conn) else None
        if conn is not None and conn.family == "G":
            rel = model.frame.relations[phi.name]
            coord_sizes = rel.sizes[1:]
            for tup in product(*(range(s) for s in coord_sizes)):
                holds = True
                for v, arg, e in zip(tup, phi.args, conn.order_type):
                    if e == "1":
                        if not _cosat(model, v, arg):
                            holds = False
                            break
                    elif not _sat(model, v, arg):
                        holds = False
                        break
                if holds and (w,) + tup not in rel.tuples:
                    return False
            return True
        # disjunctions and F connectives: below every co-satisfying U point
        return all(
            pol.n(w, u) for u in range(pol.nu) if _cosat(model, u, phi)
        )
    raise TypeError(f"not a formula: {phi!r}")


def _cosat(model, u, phi):
    pol = model.frame.polarity
    if isinstance(phi, Prop):
        return bool(model.valuation[phi.name].intent >> u & 1)
    if isinstance(phi, Bot):
        return True
    if isinstance(phi, Or):
        return _cosat(model, u, phi.left) and _cosat(model, u, phi.right)
    if isinstance(phi, Conn):
        conn = model.frame.signature.get(phi.name)
        if conn is not None and conn.family == "F":
            rel = model.frame.relations[phi.name]
            coord_sizes = rel.sizes[1:]
            for tup in product(*(range(s) for s in coord_sizes)):
                holds = True
                for v, arg, e in zip(tup, phi.args, conn.order_type):
                    if e == "1":
                        if not _sat(model, v, arg):
                            holds = False
                            break
                    elif not _cosat(model, v, arg):
                        holds = False
                        break
                if holds and (u,) + tup not in rel.tuples:
                    return False
            return True
    # top, conjunctions and G connectives: above every satisfying W point
    return all(pol.n(w, u) for w in range(pol.nw) if _sat(model, w, phi))


def model_validates(model, sequent):
    """Extent inclusion of the left side in the right side."""
    l = eval_formula(model, sequent.lhs)
    r = eval_formula(model, sequent.rhs)
    return l.extent & ~r.extent == 0


@dataclass
class ValidityVerdict:
    valid: bool
    counter_valuation: dict = None
    valuations_checked: int = 0

    def describe(self, frame):
        if self.valid:
            return f"valid ({self.valuations_checked} valuations checked)"
        pol = frame.polarity
        parts = ", ".join(
            f"{p} = {c.show(pol)}" for p, c in sorted(self.counter_valuation.items())
        )
        return f"invalid; counter-valuation: {parts}"

    def to_dict(self, frame):
        out = {"valid": self.valid, "valuations_checked": self.valuations_checked}
        if not self.valid:
            pol = frame.polarity
            out["counter_valuation"] = {
                p: {
                    "extent": [pol.w_names[i] for i in bits(c.extent)],
                    "intent": [pol.u_names[i] for i in bits(c.intent)],
                }
                for p, c in self.counter_valuation.items()
            }
        return out


def frame_validates(frame, sequent, cap=DEFAULT_VALUATION_CAP, concept_cap=None):
    """Check the sequent under every valuation of its propositions.

    Valuations are scanned in concept enumeration order, propositions
    sorted by name; the first failing valuation is reported.
    """
    validate_formula(sequent, frame.signature)
    concepts = enumerate_concepts(frame.polarity, concept_cap)
    props = sorted(props_of(sequent))
    total = len(concepts) ** len(props)
    if cap is not None and total > cap:
        raise CapExceededError(
            f"{total} valuations needed, cap is {cap}; raise the cap to proceed"
        )
    checked = 0
    for combo in product(concepts, repeat=len(props)):
        model = Model(frame, dict(zip(props, combo)))
        checked += 1
        if not model_validates(model, sequent):
            return ValidityVerdict(False, dict(zip(props, combo)), checked)
    return ValidityVerdict(True, None, checked)


def algebra_validates(alg, sequent, cap=DEFAULT_VALUATION_CAP):
    """Validity computed in a finite algebra via its operation tables."""
    validate_formula(sequent, alg.signature)
    props = sorted(props_of(sequent))
    total = alg.size ** len(props)
    if cap is not None and total > cap:
        raise CapExceededError(f"{total} assignments needed, cap is {cap}")

    def ev(phi, env):
        if isinstance(phi, Prop):
            return env[phi.name]
        if isinstance(phi, Top):
            return alg.top
        if isinstance(phi, Bot):
            return alg.bot
        if isinstance(phi, And):
            return alg.meet[ev(phi.left, env)][ev(phi.right, env)]
        if isinstance(phi, Or):
            return alg.join[ev(phi.left, env)][ev(phi.right, env)]
        return alg.ops[phi.name][tuple(ev(a, env) for a in phi.args)]

    for combo in product(range(alg.size), repeat=len(props)):
        env = dict(zip(props, combo))
        if not alg.leq[ev(sequent.lhs, env)][ev(sequent.rhs, env)]:
            return False
    return True
