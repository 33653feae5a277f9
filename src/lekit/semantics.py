"""Valuations, satisfaction and validity over frames.

A valuation assigns a concept to each proposition.  Every formula then
denotes a concept: conjunction intersects extents, disjunction intersects
intents, and connectives go through the 0-sections of their relations.
A model validates a sequent when the left extent is contained in the
right extent (equivalently, the right intent in the left intent); a frame
validates it when every valuation of the occurring propositions does.

eval_formula evaluates one formula in one model, and _sat/_cosat give the
pointwise recursive clauses; the tests use both as oracles.  Validity
checks hash-cons the sequent into a program of slots with no names in it
(_Program), and _emit_program writes one loop nest per program shape and
domain kind, compiled once (0.2-0.5 ms) and cached by emit.compiled: one
loop per proposition, the last innermost, each slot computed right under
the loop of its highest proposition, and an early return at the first
failing valuation.  frame_validates runs it on the concepts' extent and
intent masks, memoising the Galois maps and each connective's sections
for the call: a connective gives the mask of its head sort, as a
conjunction gives an extent and a disjunction an intent, and the other
mask is derived where it is read.  algebra_validates runs it on element
indices through meet, join and the operation tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .bitset import bits
from .emit import MAX_LOOPS, compiled
from .errors import CapExceededError, FormatError
from .frame import connective_sorts, section_zero
from .polarity import Concept, enumerate_concepts
from .syntax import And, Bot, Conn, Or, Prop, Top, connective_of

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
    """A sequent compiled to a hash-consed program over numbered slots.

    nodes[i] is (kind, payload, children) with kind "prop", "top", "bot",
    "and", "or" or "conn" and children earlier slots; equal subformulas
    share one slot.  The payload holds no name: a proposition's index in
    props, the sorted proposition names, and for a connective (c, sorts)
    with c its index in conns and sorts its connective_sorts.  deps[i] is
    the highest proposition index slot i depends on, -1 for none.  key is
    the program's shape: equal keys share one function.

    The sequent is walked once.  The walk checks each connective against
    the signature in pre-order (connective_of, as validate_formula does)
    and hash-conses the nodes with proposition names in them; one pass
    over those nodes then numbers the sorted names and finds the deps.
    """

    def __init__(self, sequent, signature):
        self.signature = signature
        self.conns = {}  # connective name -> its payload
        self.slots = {}  # node, with proposition names -> its slot
        lhs, rhs = self._visit(sequent.lhs), self._visit(sequent.rhs)
        named = list(self.slots)
        self.props = sorted(name for op, name, _ in named if op == "prop")
        index = {p: k for k, p in enumerate(self.props)}
        self.nodes = []
        self.deps = []
        for op, payload, kids in named:
            if op == "prop":
                payload = index[payload]
            self.nodes.append((op, payload, kids))
            deps = [payload] if op == "prop" else [self.deps[c] for c in kids]
            self.deps.append(max(deps) if deps else -1)
        self.key = (tuple(self.nodes), tuple(self.deps), lhs, rhs, len(self.props))

    def _visit(self, phi):
        if isinstance(phi, Prop):
            node = ("prop", phi.name, ())
        elif isinstance(phi, (And, Or)):
            kids = (self._visit(phi.left), self._visit(phi.right))
            node = ("and" if isinstance(phi, And) else "or", None, kids)
        elif isinstance(phi, Conn):
            conn = connective_of(phi, self.signature)
            payload = self.conns.get(phi.name)
            if payload is None:
                payload = self.conns[phi.name] = (len(self.conns), connective_sorts(conn))
            node = ("conn", payload, tuple(map(self._visit, phi.args)))
        elif isinstance(phi, (Top, Bot)):
            node = ("top" if isinstance(phi, Top) else "bot", None, ())
        else:
            raise TypeError(f"not a formula: {phi!r}")
        return self.slots.setdefault(node, len(self.slots))


def _position(picked, n):
    """1-based position of an index tuple in product order over range(n)."""
    pos = 0
    for i in picked:
        pos = pos * n + i
    return pos + 1


class _Closed(dict):
    """A memo that derives a missing value and keeps it (see _closed)."""

    __slots__ = ("derive",)

    def __missing__(self, key):
        value = self[key] = self.derive(key)
        return value


def _closed(pairs, derive):
    memo = _Closed(pairs)
    memo.derive = derive
    return memo


def _section(rel, key):
    """The 0-section a connective gives on the masks it reads, keyed as
    _key writes them: one bare mask for a unary connective."""
    return section_zero(rel, (key,) if rel.arity == 1 else key)


def _emit_program(key):
    """Source of f0, which decides one program shape on one domain kind.

    key is (kind, *_Program.key).  f0 has one loop per proposition, the
    last innermost, and computes each slot right under the loop of the
    highest proposition it depends on, so a slot is recomputed only when
    one of its propositions changes; past MAX_LOOPS propositions the
    innermost ones share one loop over their product.  f0 returns the loop
    indices of the first valuation whose left side is not below its right
    side, or None.

    A frame program holds extents e<slot> and intents i<slot> as locals.
    Each slot computes the mask of its operation: a conjunction or top an
    extent, a disjunction or bottom an intent, and a connective the mask
    of its head sort, looked up in a memo per connective keyed as _section
    reads.  The other mask is looked up in by_ext or by_int only where it
    is read.  An algebra program reads meet, join and the operation
    tables, a unary one as a list.
    """
    kind, nodes, deps, lhs, rhs, m = key
    frame = kind == "frame"
    loops = min(m, MAX_LOOPS)
    at = [[] for _ in range(loops + 1)]  # at[k]: slots computed in loop k - 1
    props = [None] * m
    for slot, (op, payload, _) in enumerate(nodes):
        if op == "prop":
            props[payload] = slot
        else:
            at[min(deps[slot], loops - 1) + 1].append(slot)
    need = [set() for _ in nodes]  # which of "e" and "i" each slot must give
    need[lhs].add("e")
    need[rhs].add("e")
    for slot in reversed(range(len(nodes))):
        op, payload, kids = nodes[slot]
        reads = _reads(payload[1]) if op == "conn" else [{"and": "e", "or": "i"}.get(op)] * len(kids)
        for c, mask in zip(kids, reads):
            need[c].add(mask)
    params = "D, by_ext, by_int, W, U" if frame else "dom, meet, join, leq, top, bot"
    lines = [f"def f0(fns, {params}, tables, product):"]
    nconns = len({payload[0] for op, payload, _ in nodes if op == "conn"})
    if nconns:
        lines.append(f"    {''.join(f'R{c}, ' for c in range(nconns))}= tables")

    def step(slot):
        op, payload, kids = nodes[slot]
        if not frame:
            if op in ("top", "bot"):
                return [f"v{slot} = {op}"]
            if op in ("and", "or"):
                return [f"v{slot} = {'meet' if op == 'and' else 'join'}[v{kids[0]}][v{kids[1]}]"]
            return [f"v{slot} = R{payload[0]}[{_key([f'v{c}' for c in kids])}]"]
        if op == "conn":
            reads = [mask + str(c) for c, mask in zip(kids, _reads(payload[1]))]
            have = "e" if payload[1][0] == "W" else "i"
            value = f"R{payload[0]}[{_key(reads)}]"
        elif op in ("top", "bot"):
            have, value = ("e", "W") if op == "top" else ("i", "U")
        else:
            have = "e" if op == "and" else "i"
            value = f"{have}{kids[0]} & {have}{kids[1]}"
        other, memo = ("i", "by_ext") if have == "e" else ("e", "by_int")
        derived = [f"{other}{slot} = {memo}[{have}{slot}]"] if other in need[slot] else []
        return [f"{have}{slot} = {value}"] + derived

    found = []
    for depth in range(loops + 1):
        if depth:
            group = props[depth - 1 :] if depth == loops else props[depth - 1 : depth]
            targets = [f"(e{s}, i{s})" if frame else f"v{s}" for s in group]
            found += [f"D.index((e{s}, i{s}))" if frame else f"v{s}" for s in group]
            source = "D" if frame else "dom"
            if len(group) > 1:
                source = f"product({source}, repeat={len(group)})"
            lines.append(f"{'    ' * depth}for {', '.join(targets)} in {source}:")
        lines += ["    " * (depth + 1) + line for slot in at[depth] for line in step(slot)]
    pad = "    " * (loops + 1)
    lines.append(pad + (f"if e{lhs} & ~e{rhs}:" if frame else f"if not leq[v{lhs}][v{rhs}]:"))
    lines.append(f"{pad}    return ({''.join(i + ', ' for i in found)})")
    lines.append("    return None")
    return lines


def _key(names):
    """A table key: the one name of a unary connective, else their tuple."""
    return names[0] if len(names) == 1 else f"({''.join(n + ', ' for n in names)})"


def _reads(sorts):
    """The mask, "e" or "i", a connective reads at each coordinate.

    An argument of sort W is read as an extent, one of sort U as an intent.
    """
    return ["e" if s == "W" else "i" for s in sorts[1:]]


def _check_cap(total, cap):
    """Refuse a check of more than cap valuations; a cap of None is none."""
    if cap is not None and total > cap:
        raise CapExceededError(
            f"{total} valuations needed, cap is {cap}; raise the cap to proceed"
        )


def frame_validates(frame, sequent, cap=DEFAULT_VALUATION_CAP, concept_cap=None):
    """Check the sequent under every valuation of its propositions.

    Valuations are scanned in concept enumeration order, propositions
    sorted by name, the last one fastest; the first failing valuation is
    reported.  The sequent runs as one compiled program on the concepts'
    (extent, intent) pairs, with no complex algebra built, so frames
    loaded without the compatibility check are decided as well.
    """
    program = _Program(sequent, frame.signature)
    props = program.props
    concepts = enumerate_concepts(frame.polarity, concept_cap)
    total = len(concepts) ** len(props)
    _check_cap(total, cap)
    pol = frame.polarity
    # plain tuples: the loops unpack them faster than Concepts, a subclass
    pairs = [(c.extent, c.intent) for c in concepts]
    by_ext = _closed(pairs, pol.up)
    by_int = _closed([(i, e) for e, i in pairs], pol.down)
    memos = [_closed((), partial(_section, frame.relations[c])) for c in program.conns]
    fns = compiled(_emit_program, ("frame",) + program.key)
    picked = fns[0](fns, pairs, by_ext, by_int, pol.full_w, pol.full_u, memos, product)
    if picked is None:
        return ValidityVerdict(True, None, total)
    counter = {p: concepts[i] for p, i in zip(props, picked)}
    return ValidityVerdict(False, counter, _position(picked, len(concepts)))


def algebra_validates(alg, sequent, cap=DEFAULT_VALUATION_CAP):
    """Validity computed in a finite algebra via its operation tables.

    Runs the program frame_validates uses, on element indices, with
    meet, join and the operation tables in place of the frame's sections.
    """
    program = _Program(sequent, alg.signature)
    total = alg.size ** len(program.props)
    _check_cap(total, cap)
    # meet and join are read only if used, as a complex algebra fills them
    # lazily; leq is the matrix view, not shifts of cone masks: indexing
    # tuples is the cheapest order test per valuation, and it is built once
    kinds = {op for op, _, _ in program.nodes}
    meet = alg.meet if "and" in kinds else None
    join = alg.join if "or" in kinds else None
    dom = range(alg.size)
    tables = [
        [alg.ops[c][(x,)] for x in dom] if alg.signature.get(c).arity == 1 else alg.ops[c]
        for c in program.conns
    ]
    fns = compiled(_emit_program, ("algebra",) + program.key)
    picked = fns[0](fns, dom, meet, join, alg.leq, alg.top, alg.bot, tables, product)
    return picked is None
