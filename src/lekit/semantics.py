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
domain kind, compiled once (0.3-0.5 ms) and cached by emit.compiled: one
loop per proposition, the last innermost, each over a domain passed in,
each slot computed right under the loop of its highest proposition, and
an early return at the first failing valuation.  frame_validates runs it
on the concepts' extent and intent masks.  A conjunction gives an extent
and a disjunction an intent, and their other mask is derived where it is
read, through the Galois maps memoised for the call in exact dicts.  A
connective's result comes from one memo per connective and key pattern,
keyed by the masks its arguments already hold: an extent for a
proposition, a conjunction, top or a G connective, an intent for a
disjunction, bot or an F connective.  An entry holds both masks of the
result, its section and the Galois map of that, computed once, at the
miss, so a valuation reads a connective's result with one dict read.
A unary connective's section there is one bitset.meet_rows on its
relation's one row, an n-ary one's frame.section_zero.  The sides are
compared by extents, or by intents through the Galois identity
e <= down(i) iff i <= up(e) where the left intent is up of its extent
and the right extent down of its intent (_test_mask).  The program makes
its memos itself, empty at each run, and with one proposition fills a
unary connective's memo for every concept by the rule _emit_program
states.  algebra_validates runs the program on element indices through
meet, join and the operation tables.

The emitter also works out, once per shape, a plan for each proposition
from the signs of the two sides in it (_plan): all, or top alone when the
left side is monotone in it and the right antitone, or bot alone in the
dual case.  A check scans those reduced domains (the last and first
concepts, or the algebra's top and bot) first and answers valid
from a pass when the operations it read are monotone: always on a frame,
whose sections are, and on an algebra when it is a complex algebra or
normal.  Otherwise, and on a frame's failure, it scans every valuation,
so a counter-valuation is always the first in full order and
valuations_checked counts the valuations the verdict covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice, product

from .algebra import ComplexAlgebra, verify_normality
from .bitset import bits, meet_each, meet_rows
from .emit import MAX_LOOPS, compiled
from .errors import CapExceededError, FormatError
from .frame import connective_sorts, section_zero
from .polarity import Concept, concept_pairs
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


def _point(pol, point, sort):
    """The index of a W or U point given by its name or index; an index
    that is no point of the sort is refused as an unknown name is."""
    if isinstance(point, str):
        return pol.w_index(point) if sort == "W" else pol.u_index(point)
    if isinstance(point, int) and 0 <= point < (pol.nw if sort == "W" else pol.nu):
        return point
    raise FormatError(f"unknown {sort} point {point!r}")


def satisfies(model, w, phi):
    """True when the W point w is in the extent of phi."""
    w = _point(model.frame.polarity, w, "W")
    return bool(eval_formula(model, phi).extent >> w & 1)


def cosatisfies(model, u, phi):
    """True when the U point u is in the intent of phi."""
    u = _point(model.frame.polarity, u, "U")
    return bool(eval_formula(model, phi).intent >> u & 1)


def satisfies_recursive(model, w, phi):
    """satisfies computed by the pointwise recursive clauses."""
    return _sat(model, _point(model.frame.polarity, w, "W"), phi)


def cosatisfies_recursive(model, u, phi):
    """cosatisfies computed by the pointwise recursive clauses."""
    return _cosat(model, _point(model.frame.polarity, u, "U"), phi)


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
            n = self.valuations_checked
            return f"valid ({n} valuation{'' if n == 1 else 's'} checked)"
        if not self.counter_valuation:
            return "invalid under the empty valuation (the sequent has no propositions)"
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
    with c its index in conns and sorts its connective_sorts.  key is the
    program's shape: equal keys share one function.  Everything else the
    emitter needs (where each slot is computed, the plans) follows from
    the key, so it is worked out once per shape, not here.

    The sequent is walked once.  The walk checks each connective against
    the signature in pre-order (connective_of, as validate_formula does)
    and hash-conses the nodes with proposition names in them; one pass
    over those nodes then numbers the sorted names.
    """

    def __init__(self, sequent, signature):
        self.signature = signature
        self.conns = {}  # connective name -> its payload
        self.slots = {}  # node, with proposition names -> its slot
        lhs, rhs = self._visit(sequent.lhs), self._visit(sequent.rhs)
        named = list(self.slots)
        self.props = sorted([name for op, name, _ in named if op == "prop"])
        index = {p: k for k, p in enumerate(self.props)}
        self.nodes = tuple(
            [(op, index[x], kids) if op == "prop" else (op, x, kids) for op, x, kids in named]
        )
        self.key = (self.nodes, lhs, rhs, len(self.props))

    def _visit(self, phi):
        kind = type(phi)  # the formula classes are final: no subclass to dispatch on
        if kind is Prop:
            node = ("prop", phi.name, ())
        elif kind is And or kind is Or:
            kids = (self._visit(phi.left), self._visit(phi.right))
            node = ("and" if kind is And else "or", None, kids)
        elif kind is Conn:
            conn = connective_of(phi, self.signature)
            payload = self.conns.get(phi.name)
            if payload is None:
                payload = self.conns[phi.name] = (len(self.conns), connective_sorts(conn))
            node = ("conn", payload, tuple(map(self._visit, phi.args)))
        elif kind is Top or kind is Bot:
            node = ("top" if kind is Top else "bot", None, ())
        else:
            raise TypeError(f"not a formula: {phi!r}")
        return self.slots.setdefault(node, len(self.slots))


def _position(picked, n):
    """1-based position of an index tuple in product order over range(n)."""
    pos = 0
    for i in picked:
        pos = pos * n + i
    return pos + 1


# What a proposition may range over, by its plan (_plan); generated code
# returns a plan as indices into this tuple.
_DOMAINS = ("all", "top", "bot")


def _signs(nodes, p):
    """The sign of each slot as a map of proposition p, the others fixed:
    None when p does not occur, 1 for monotone, -1 for antitone, 0 for
    neither.  p is monotone, and so are the places of a conjunction or
    disjunction; a connective's place is monotone when its sort differs
    from the head's, else antitone, since the program reads raw sections.
    A slot has the sign its arguments with p give it through their places
    when they agree, else 0.
    """
    signs = []
    for op, payload, kids in nodes:
        if op == "prop":
            signs.append(1 if payload == p else None)
            continue
        if op == "conn":
            head, *coords = payload[1]
            places = [1 if s != head else -1 for s in coords]
        else:
            places = [1] * len(kids)
        parts = {signs[c] * place for c, place in zip(kids, places) if signs[c] is not None}
        signs.append(parts.pop() if len(parts) == 1 else 0 if parts else None)
    return signs


def _plan(left, right):
    """The domain a proposition ranges over, from its signs on the two
    sides (see _signs); a side without it (None) is both monotone and
    antitone.

    Lhs monotone and rhs antitone: top alone, since lhs(x) <= lhs(top)
    <= rhs(top) <= rhs(x).  Lhs antitone and rhs monotone: bot.  Else all.
    """
    if left in (1, None) and right in (-1, None):
        return "top"
    if left in (-1, None) and right in (1, None):
        return "bot"
    return "all"


def _memo_read(target, memo, key, derive):
    """Lines reading memo[key] into target, deriving and keeping a missing
    value: the memos are exact dicts, whose reads CPython specializes."""
    return [
        "try:",
        f"    {target} = {memo}[{key}]",
        "except KeyError:",
        f"    {target} = {memo}[{key}] = {derive}({key})",
    ]


def _key_mask(op, payload):
    """The mask, "e" or "i", a frame program keys a slot's value by: the
    one its operation computes, whose Galois map is the other.  A
    conjunction, top or a connective of head W gives an extent; a
    disjunction, bot or a connective of head U an intent.  A proposition
    holds both, and is keyed by its extent."""
    if op == "conn":
        return "e" if payload[1][0] == "W" else "i"
    return "i" if op in ("or", "bot") else "e"


def _test_mask(nodes, keys, has, lhs, rhs):
    """The mask, "e" or "i", a frame program compares the two sides by.

    The left extent must be below the right one.  By the Galois identity
    e <= down(i) iff i <= up(e), which holds for any masks, that is the
    right intent below the left one when the left intent is up of its
    extent (the left side is keyed by its extent) and the right extent
    down of its intent (the right side is keyed by its intent, or is a
    proposition).  A connective's raw section need not be stable, so its
    other mask is no more than the map of it.  Intents are compared when
    the identity applies and fewer of them than of the extents are missing
    from the masks the sides have (has).
    """
    galois = keys[lhs] == "e" and (keys[rhs] == "i" or nodes[rhs][0] == "prop")
    missing = {mask: (mask not in has[lhs]) + (mask not in has[rhs]) for mask in "ei"}
    return "i" if galois and missing["i"] < missing["e"] else "e"


def _emit_program(key):
    """Source of f0, which decides one program shape on one domain kind,
    and of f1, which returns the program's plan.

    key is (kind, *_Program.key).  f0 takes one domain per proposition.
    It has one loop per proposition, the last innermost, and computes each
    slot right under the loop of the highest proposition it depends on, so
    a slot is recomputed only when one of its propositions changes; past
    MAX_LOOPS propositions the innermost ones share one loop over the
    product of their domains.  f0 returns the indices, in their domains, of
    the first valuation whose left side is not below its right side, or
    None.  f1 returns the plan of each proposition (_plan) as indices into
    _DOMAINS, so it is worked out once per shape.

    A frame program holds extents e<slot> and intents i<slot> as locals,
    one name per slot and mask.  Each slot is keyed by one mask
    (_key_mask): a conjunction or top computes an extent, a disjunction
    or bottom an intent, and their other mask, up or down of it, is read
    from by_ext or by_int (the Galois memos) only where it is read.  A
    proposition holds both masks, and so does a connective: it reads both
    from one memo per connective and key pattern (R<memo>), keyed by the
    masks its arguments are keyed by, so box p and box(p /\\ q) share
    entries.  A missing entry is computed once: its section from the masks
    the connective reads, those its arguments hold or else the Galois map
    of their keys, and the Galois map of the section, each map read from
    its memo.  The section is meet_rows on S<connective>, the relation's
    one row, for a unary connective, and a call of S<connective>
    (section_zero on its relation) with the tuple of masks for any other.
    A connective that reads no proposition is computed once, before the
    loops, and has no memo.  The sides are compared by the mask _test_mask
    picks.

    f0 makes the memos, empty, at each call, and this is the one rule that
    fills them: with one proposition, a unary connective's miss that finds
    its memo holding exactly one entry, in a scan of more than one
    valuation, first adds fill(S<connective>, reads, head, key) (_filled),
    an entry for every concept, and looks again.  The three flags, literals
    True for an extent and False for an intent, are the mask the
    connective reads, the mask of its section and the mask its memo is
    keyed by.  So a memo fills at its second key: an argument whose key
    takes one value, such as p /\\ bot alone in its memo, misses once and
    fills nothing; a reduced scan, or a full scan that fails at its first
    valuation, fills nothing; and after a fill a valuation pays a miss only
    for a key that is no concept's mask.  A fill holds the entries misses
    would compute, on any frame, since an argument that is no proposition
    holds the Galois map of its key as its other mask.

    An algebra program reads meet, join and the flat operation tables, at
    the Horner position (v_a * n + v_b) * n + ... of the arguments, for n
    elements.
    """
    kind, nodes, lhs, rhs, m = key
    frame = kind == "frame"
    loops = min(m, MAX_LOOPS)
    at = [[] for _ in range(loops + 1)]  # at[k]: slots computed in loop k - 1
    props = [None] * m
    deps = []  # deps[slot]: the highest proposition the slot depends on, -1 for none
    for slot, (op, payload, kids) in enumerate(nodes):
        if op == "prop":
            props[payload] = slot
            deps.append(payload)
        else:
            deps.append(max([deps[c] for c in kids], default=-1))
            at[min(deps[slot], loops - 1) + 1].append(slot)
    keys = [_key_mask(op, payload) for op, payload, _ in nodes]
    # has[slot]: the masks a slot gives, "e" and "i"; a proposition and a
    # connective hold both, and another slot derives its other mask where
    # it is read
    has = [{"e", "i"} if op in ("prop", "conn") else {k} for (op, _, _), k in zip(nodes, keys)]
    test = _test_mask(nodes, keys, has, lhs, rhs)
    has[lhs].add(test)
    has[rhs].add(test)
    memos = {}  # (connective, key masks of its arguments) -> memo number
    memo = []  # memo[slot]: the memo number of a connective reading a proposition, else None
    for slot, (op, payload, kids) in enumerate(nodes):
        for c in kids:
            has[c].add(keys[c] if op == "conn" else "e" if op == "and" else "i")
        memoised = op == "conn" and deps[slot] >= 0
        pattern = (payload[0], tuple([keys[c] for c in kids])) if memoised else None
        memo.append(memos.setdefault(pattern, len(memos)) if pattern else None)
    signs = [_signs(nodes, p) for p in range(m)]
    plans = [_plan(s[lhs], s[rhs]) for s in signs]
    if frame:
        params = "by_ext, by_int, up, down, W, U, sections, meet_rows, fill"
    else:
        params = "meet, join, leq, top, bot, n, tables"
    lines = [f"def f0(fns, doms, {params}, product):"]
    nconns = len({payload[0] for op, payload, _ in nodes if op == "conn"})
    if frame and memos:
        names = [f"R{r}" for r in range(len(memos))]  # empty at each call
        lines.append(f"    {', '.join(names)} = {', '.join(['{}'] * len(names))}")
    if nconns and frame:
        lines.append(f"    {''.join(f'S{c}, ' for c in range(nconns))}= sections")
    elif nconns:
        lines.append(f"    {''.join(f'R{c}, ' for c in range(nconns))}= tables")
    if m:
        lines.append(f"    {''.join(f'D{k}, ' for k in range(m))}= doms")

    def other(slot):
        """Lines giving a slot its other mask, up or down of its key read
        from by_ext or by_int, the Galois memos of the call."""
        if keys[slot] == "e":
            return _memo_read(f"i{slot}", "by_ext", f"e{slot}", "up")
        return _memo_read(f"e{slot}", "by_int", f"i{slot}", "down")

    def step(slot):
        op, payload, kids = nodes[slot]
        if not frame:
            if op in ("top", "bot"):
                return [f"v{slot} = {op}"]
            if op in ("and", "or"):
                return [f"v{slot} = {'meet' if op == 'and' else 'join'}[v{kids[0]}][v{kids[1]}]"]
            return [f"v{slot} = R{payload[0]}[{_index([f'v{c}' for c in kids])}]"]
        mask = keys[slot]
        if op == "conn":
            c, sorts = payload
            r = memo[slot]
            key = _key([f"{keys[k]}{k}" for k in kids])
            reads = list(zip(kids, _reads(sorts)))
            # a miss first derives the masks it reads that the arguments lack
            lack = sorted({k for k, read in reads if read not in has[k]})
            miss = [line for k in lack for line in other(k)]
            if len(reads) == 1:  # S<c> is the relation's one row
                ((k, read),) = reads
                full = "W" if mask == "e" else "U"
                miss.append(f"{mask}{slot} = meet_rows(S{c}, {read}{k}, {full})")
            else:
                masks = "".join(f"{read}{k}, " for k, read in reads)
                miss.append(f"{mask}{slot} = S{c}(({masks}))")
            miss += other(slot)
            if deps[slot] < 0:  # computed once, before the loops
                return miss
            miss.append(f"R{r}[{key}] = e{slot}, i{slot}")
            if m == 1 and len(kids) == 1:
                flags = ", ".join([str(x == "e") for x in (reads[0][1], mask, keys[kids[0]])])
                miss = [
                    f"if len(R{r}) == 1 and len(D0) > 1:",
                    f"    R{r}.update(fill(S{c}, {flags}))",
                    f"if {key} in R{r}:",
                    f"    e{slot}, i{slot} = R{r}[{key}]",
                    "else:",
                ] + ["    " + line for line in miss]
            return ["try:", f"    e{slot}, i{slot} = R{r}[{key}]", "except KeyError:"] + [
                "    " + line for line in miss
            ]
        if op in ("top", "bot"):
            compute = [f"{mask}{slot} = {'W' if op == 'top' else 'U'}"]
        else:
            compute = [f"{mask}{slot} = {mask}{kids[0]} & {mask}{kids[1]}"]
        return compute + (other(slot) if len(has[slot]) > 1 else [])

    found = []
    for depth in range(loops + 1):
        if depth:
            group = range(depth - 1, m if depth == loops else depth)
            targets = [f"(e{props[k]}, i{props[k]})" if frame else f"v{props[k]}" for k in group]
            found += [f"D{k}.index({t})" for k, t in zip(group, targets)]
            source = ", ".join(f"D{k}" for k in group)
            if len(group) > 1:
                source = f"product({source})"
            lines.append(f"{'    ' * depth}for {', '.join(targets)} in {source}:")
        lines += ["    " * (depth + 1) + line for slot in at[depth] for line in step(slot)]
    pad = "    " * (loops + 1)
    if frame:
        below, above = (f"e{lhs}", f"e{rhs}") if test == "e" else (f"i{rhs}", f"i{lhs}")
        lines.append(f"{pad}if {below} & ~{above}:")
    else:
        lines.append(f"{pad}if not leq[v{lhs}][v{rhs}]:")
    lines.append(f"{pad}    return ({''.join(i + ', ' for i in found)})")
    lines.append("    return None")
    lines += ["def f1(fns):", f"    return ({''.join(f'{_DOMAINS.index(p)}, ' for p in plans)})"]
    return lines


def _key(names):
    """A memo key: the one name of a unary connective, else their tuple."""
    return names[0] if len(names) == 1 else f"({''.join(n + ', ' for n in names)})"


def _index(names):
    """The position of an argument tuple in a flat table over n elements:
    (a * n + b) * n + c for names a, b, c, and 0 for none."""
    index = names[0] if names else "0"
    for k, name in enumerate(names[1:]):
        index = f"{f'({index})' if k else index} * n + {name}"
    return index


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


def _failure(fns, args, full, top, bot, first, sound=None):
    """A valuation the program fns fails, as indices into the domains it
    scanned, or None when it fails none.

    When the plan (fns[1]) gives some proposition top or bot alone and
    full holds more than that one value, the reduced scan runs first, on
    the one-value list top or bot for those and full for the others.  A
    pass there answers unless sound is given and sound() fails; a failure
    there is a real one, and answers unless first asks for the first
    failing valuation in full order.  Else the full scan runs.
    """
    plans = [_DOMAINS[k] for k in fns[1](fns)]
    if len(full) > 1 and plans.count("all") < len(plans):
        doms = [full if p == "all" else top if p == "top" else bot for p in plans]
        picked = fns[0](fns, doms, *args)
        if picked is None:
            if sound is None or sound():
                return None
        elif not first:
            return picked
    return fns[0](fns, [full] * len(plans), *args)


def _one_row(rel):
    """The one row of a unary relation's row index for its heads: the heads
    related to each point, all 0 when it has no tuples.  meet_rows on it
    is section_zero."""
    return rel.rows[0].get((), [0] * rel.sizes[1])


def _filled(pol, n, by_ext, by_int, row, reads_ext, head_ext, key_ext):
    """The entries of a unary connective's memo for every concept, as (key,
    entry) pairs, where row is the relation's one row (_one_row) and by_ext
    and by_int are the Galois memos, whose first n keys are the concepts'
    masks in order.  The connective reads extents or intents (reads_ext),
    its section is an extent or an intent (head_ext), and the memo is keyed
    by the concepts' extents or intents (key_ext).  The sections are one
    bitset.meet_each on the row, the kernel a miss reads, and their other
    masks come from the memo of the head sort, as a miss reads them, or
    from up or down where a section is in no entry of the memo."""
    masks = list(islice(by_ext if reads_ext else by_int, n))
    sections = meet_each(row, masks, pol.full_w if head_ext else pol.full_u)
    memo, derive = (by_ext, pol.up) if head_ext else (by_int, pol.down)
    others = list(map(memo.get, sections))
    if None in others:
        others = [derive(s) if o is None else o for s, o in zip(sections, others)]
    entries = zip(sections, others) if head_ext else zip(others, sections)
    return zip(islice(by_ext if key_ext else by_int, n), entries)


def frame_validates(frame, sequent, cap=DEFAULT_VALUATION_CAP, concept_cap=None):
    """Check the sequent under every valuation of its propositions.

    Valuations are scanned in concept enumeration order, propositions
    sorted by name, the last one fastest; the first failing valuation is
    reported as Concepts.  The sequent runs as one compiled program on the
    plain (extent, intent) tuples of concept_pairs, with no complex algebra
    built, so frames loaded unchecked are decided as well.

    A proposition whose plan (_plan) is top or bot alone ranges over it
    first.  A pass of that reduced scan answers valid with no check of the
    frame: raw sections are monotone or antitone in each argument on any
    frame, compatible or not, as _plan assumes.  Else, and whenever the
    reduced scan fails, every valuation is scanned, so the
    counter-valuation is the first in full order.  valuations_checked is
    the number of valuations the verdict covers: all of them (c**k for c
    concepts and k propositions) when valid, else the counter-valuation's
    position.  The cap bounds c**k, since the full scan may run.

    The program fills memos by _emit_program's rule, through _filled bound
    here as fill.  by_ext and by_int start as the concepts' masks in order
    and only grow, so their first keys are the concepts' masks when a fill
    reads them.
    """
    program = _Program(sequent, frame.signature)
    props = program.props
    pol = frame.polarity
    pairs = concept_pairs(pol, concept_cap)
    total = len(pairs) ** len(props)
    _check_cap(total, cap)
    by_ext = dict(pairs)
    by_int = {i: e for e, i in pairs}
    rels = [frame.relations[c] for c in program.conns]
    sections = [_one_row(rel) if rel.arity == 1 else partial(section_zero, rel) for rel in rels]
    args = (by_ext, by_int, pol.up, pol.down, pol.full_w, pol.full_u, sections, meet_rows)
    args += (partial(_filled, pol, len(pairs), by_ext, by_int), product)
    fns = compiled(_emit_program, ("frame",) + program.key)
    # concept_pairs sorts by extent: the bottom concept first, the top last
    picked = _failure(fns, args, pairs, pairs[-1:], pairs[:1], first=True)
    if picked is None:
        return ValidityVerdict(True, None, total)
    counter = {p: Concept._make(pairs[i]) for p, i in zip(props, picked)}
    return ValidityVerdict(False, counter, _position(picked, len(pairs)))


def _algebra_reduction_holds(alg):
    """Top and bot need only monotone operations.  A complex algebra has
    them, since it is built from its frame alone, its tables the raw
    sections; a user's tables need not be, so they must pass verify_normality."""
    return isinstance(alg, ComplexAlgebra) or verify_normality(alg).passed


def algebra_validates(alg, sequent, cap=DEFAULT_VALUATION_CAP):
    """Validity computed in a finite algebra via its operation tables.

    Runs the program frame_validates uses, on element indices, with
    meet, join and the operation tables in place of the frame's sections,
    and with the same plans.  A pass of the reduced scan answers valid
    when _algebra_reduction_holds, else every valuation is scanned.  A
    failure of the reduced scan answers invalid at once: an algebra's
    verdict names no counter-valuation.  The cap bounds all size**k
    valuations.
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
    tables = [alg.tables[c] for c in program.conns]
    args = (meet, join, alg.leq, alg.top, alg.bot, alg.size, tables, product)
    fns = compiled(_emit_program, ("algebra",) + program.key)
    sound = partial(_algebra_reduction_holds, alg)
    return _failure(fns, args, dom, [alg.top], [alg.bot], first=False, sound=sound) is None
