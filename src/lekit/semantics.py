"""Valuations, satisfaction and validity over frames.

A valuation assigns a concept to each proposition.  Every formula then
denotes a concept: conjunction intersects extents, disjunction intersects
intents, and connectives go through the 0-sections of their relations.
A model validates a sequent when the left extent is contained in the
right extent (equivalently, the right intent in the left intent); a frame
validates it when every valuation of the occurring propositions does.

eval_formula evaluates one formula in one model, and _sat/_cosat give the
pointwise recursive clauses; the tests use both as oracles.  Validity checks
compile the sequent once into a straight-line program (_Program): one
slot per distinct subformula, each recording the highest proposition
index it depends on.  Valuations are scanned like an odometer, in product
order with the last proposition changing fastest, and a step recomputes
only the slots that depend on a proposition that changed.  frame_validates
runs the program on (extent, intent) mask pairs of the enumerated
concepts, memoising the Galois maps and each connective's sections;
algebra_validates runs it on element indices through meet, join and the
operation tables.
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
            intent = pol.up(c.extent)
            if intent != c.intent or pol.down(intent) != c.extent:
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


class _Program:
    """A sequent compiled to a hash-consed straight-line program.

    nodes[i] is (kind, payload, children) with kind "prop", "top", "bot",
    "and", "or" or "conn", payload the proposition or connective name, and
    children earlier slots; equal subformulas share one slot.  deps[i] is
    the highest index (in props) of a proposition that slot i depends on,
    -1 for none.  vals[i] holds the value of slot i during a scan.
    """

    def __init__(self, sequent, props):
        index = {p: k for k, p in enumerate(props)}
        self.nodes = []
        self.deps = []
        slots = {}

        def visit(phi):
            if isinstance(phi, Prop):
                node = ("prop", phi.name, ())
            elif isinstance(phi, Top):
                node = ("top", None, ())
            elif isinstance(phi, Bot):
                node = ("bot", None, ())
            elif isinstance(phi, And):
                node = ("and", None, (visit(phi.left), visit(phi.right)))
            elif isinstance(phi, Or):
                node = ("or", None, (visit(phi.left), visit(phi.right)))
            elif isinstance(phi, Conn):
                node = ("conn", phi.name, tuple(visit(a) for a in phi.args))
            else:
                raise TypeError(f"not a formula: {phi!r}")
            slot = slots.get(node)
            if slot is None:
                slot = slots[node] = len(self.nodes)
                self.nodes.append(node)
                if node[0] == "prop":
                    self.deps.append(index[phi.name])
                else:
                    self.deps.append(max((self.deps[c] for c in node[2]), default=-1))
            return slot

        self.lhs = visit(sequent.lhs)
        self.rhs = visit(sequent.rhs)
        visit = None  # the closure refers to itself: break the cycle
        self.prop_slots = [slots[("prop", p, ())] for p in props]
        self.vals = [None] * len(self.nodes)

    def scan(self, domain, make_step, holds):
        """The domain indices of the first valuation where holds() fails.

        Valuations run in product order, the last proposition fastest, like
        an odometer.  When proposition k takes its next value only the slots
        whose highest dependency is k are recomputed; those depending on
        earlier propositions keep their values, and constant slots are
        computed once.  make_step(kind, payload, children, slot) returns a
        function that stores the value of slot in vals from its children's.
        Returns None when every valuation passes.
        """
        m, vals = len(self.prop_slots), self.vals
        levels = [[] for _ in range(m + 1)]  # levels[k + 1]: slots with dep k
        for slot, (kind, payload, kids) in enumerate(self.nodes):
            if kind != "prop":
                levels[self.deps[slot] + 1].append(make_step(kind, payload, kids, slot))
        for step in levels[0]:
            step()
        picked = [0] * m

        def fails_from(k):
            if k == m:
                return not holds()
            slot, steps = self.prop_slots[k], levels[k + 1]
            for i, v in enumerate(domain):
                vals[slot] = v
                for step in steps:
                    step()
                if fails_from(k + 1):
                    picked[k] = i
                    return True
            return False

        failed = fails_from(0)
        # the closure refers to itself; left as a cycle it would keep the
        # steps, and the tables and memos they read, alive until the next
        # cyclic collection
        fails_from = None
        return tuple(picked) if failed else None


def _position(picked, n):
    """1-based position of an index tuple in product order over range(n)."""
    pos = 0
    for i in picked:
        pos = pos * n + i
    return pos + 1


def _frame_steps(frame, domain, vals):
    """make_step for values that are (extent, intent) pairs.

    Conjunctions find their pair in by_ext by extent, disjunctions in
    by_int by intent; both start out holding the enumerated concepts, so
    on compatible frames they never miss.  Connectives are memoised per
    name on the masks they read.  On incompatible frames a connective may
    leave the concept lattice; its pair is computed and memoised like any
    other.
    """
    pol = frame.polarity
    up, down = pol.up, pol.down
    by_ext = {v[0]: v for v in domain}
    by_int = {v[1]: v for v in domain}
    memos = {}

    def of_ext(ext):
        v = by_ext.get(ext)
        if v is None:
            v = by_ext[ext] = (ext, up(ext))
        return v

    def of_int(itn):
        v = by_int.get(itn)
        if v is None:
            v = by_int[itn] = (down(itn), itn)
        return v

    def make_step(kind, payload, kids, out):
        if kind == "top":
            def step():
                vals[out] = of_ext(pol.full_w)
        elif kind == "bot":
            def step():
                vals[out] = of_int(pol.full_u)
        elif kind == "and":
            a, b = kids

            def step():
                vals[out] = of_ext(vals[a][0] & vals[b][0])
        elif kind == "or":
            a, b = kids

            def step():
                vals[out] = of_int(vals[a][1] & vals[b][1])
        else:
            conn = frame.signature.get(payload)
            rel = frame.relations[payload]
            memo = memos.setdefault(payload, {})
            # G reads intents at monotone coordinates and yields an extent;
            # F reads extents there and yields an intent.
            mono, close = (1, of_ext) if conn.family == "G" else (0, of_int)
            reads = tuple(
                (c, mono if e == "1" else 1 - mono) for c, e in zip(kids, conn.order_type)
            )

            if len(reads) == 1:
                ((a, pick),) = reads

                def step():
                    key = vals[a][pick]
                    v = memo.get(key)
                    if v is None:
                        v = memo[key] = close(section_zero(rel, (key,)))
                    vals[out] = v
            else:
                def step():
                    key = tuple([vals[c][pick] for c, pick in reads])
                    v = memo.get(key)
                    if v is None:
                        v = memo[key] = close(section_zero(rel, key))
                    vals[out] = v
        return step

    return make_step


def frame_validates(frame, sequent, cap=DEFAULT_VALUATION_CAP, concept_cap=None):
    """Check the sequent under every valuation of its propositions.

    Valuations are scanned in concept enumeration order, propositions
    sorted by name, the last one fastest; the first failing valuation is
    reported.  The sequent runs as one compiled program on the concepts'
    (extent, intent) pairs, with no complex algebra built, so frames
    loaded without the compatibility check are decided as well.
    """
    validate_formula(sequent, frame.signature)
    concepts = enumerate_concepts(frame.polarity, concept_cap)
    props = sorted(props_of(sequent))
    total = len(concepts) ** len(props)
    if cap is not None and total > cap:
        raise CapExceededError(
            f"{total} valuations needed, cap is {cap}; raise the cap to proceed"
        )
    program = _Program(sequent, props)
    domain = [(c.extent, c.intent) for c in concepts]
    vals, lhs, rhs = program.vals, program.lhs, program.rhs
    picked = program.scan(
        domain,
        _frame_steps(frame, domain, vals),
        lambda: not vals[lhs][0] & ~vals[rhs][0],
    )
    if picked is None:
        return ValidityVerdict(True, None, total)
    counter = {p: concepts[i] for p, i in zip(props, picked)}
    return ValidityVerdict(False, counter, _position(picked, len(concepts)))


def algebra_validates(alg, sequent, cap=DEFAULT_VALUATION_CAP):
    """Validity computed in a finite algebra via its operation tables.

    Runs the program frame_validates uses, on element indices, with
    meet/join and the operation tables as the steps.
    """
    validate_formula(sequent, alg.signature)
    props = sorted(props_of(sequent))
    total = alg.size ** len(props)
    if cap is not None and total > cap:
        raise CapExceededError(f"{total} assignments needed, cap is {cap}")
    program = _Program(sequent, props)
    vals = program.vals

    def make_step(kind, payload, kids, out):
        if kind in ("top", "bot"):
            value = alg.top if kind == "top" else alg.bot

            def step():
                vals[out] = value
        elif kind in ("and", "or"):
            table = alg.meet if kind == "and" else alg.join
            a, b = kids

            def step():
                vals[out] = table[vals[a]][vals[b]]
        elif len(kids) == 1:
            table, (a,) = alg.ops[payload], kids

            def step():
                vals[out] = table[(vals[a],)]
        else:
            table = alg.ops[payload]

            def step():
                vals[out] = table[tuple([vals[c] for c in kids])]
        return step

    # the cached matrix view, not a shift of a cone mask: indexing tuples is
    # the cheapest order test per valuation, and the view is built once
    leq, lhs, rhs = alg.leq, program.lhs, program.rhs
    return program.scan(
        range(alg.size), make_step, lambda: leq[vals[lhs]][vals[rhs]]
    ) is None
