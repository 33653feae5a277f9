"""Small frames for the search and the tests, and the morphisms of the
search.

Used by the test suite and by the bounded falsification search.  A frame
is a key of bits (box_frames walks every compatible one) built by
box_frame, so the search can build and judge each distinct frame once.
A unary relation is made compatible by alternately closing rows and
columns until nothing changes; closure only adds pairs, so this stops.
The p-morphisms between a frame and a coproduct are read off the
incidence N (the coproduct lists component k's points after those of
the earlier components), so building them enumerates nothing.
"""

from __future__ import annotations

from itertools import product

from .bitset import bits
from .constructions import coproduct
from .frame import Frame, Relation, connective_sorts
from .morphism import PMorphism
from .polarity import Polarity, meets
from .syntax import Connective, Signature

SIG_BOX = Signature((Connective("box", "G", 1, ("1",)),))


def stabilize_box_relation(pol, pairs):
    """Grow a W x U relation until all rows are intents and columns extents.

    The result is the least such relation holding pairs.  Rows and
    columns are kept in step, and a line is closed again only when it
    gained a pair since it was last closed.
    """
    rows, cols = [0] * pol.nw, [0] * pol.nu
    for w, u in pairs:
        rows[w] |= 1 << u
        cols[u] |= 1 << w
    open_w, open_u = pol.full_w, pol.full_u
    while open_w or open_u:
        for w in bits(open_w):
            added = pol.closure_u(rows[w]) & ~rows[w]
            rows[w] |= added
            for u in bits(added):
                cols[u] |= 1 << w
            open_u |= added
        open_w = 0
        for u in bits(open_u):
            added = pol.closure_w(cols[u]) & ~cols[u]
            cols[u] |= added
            for w in bits(added):
                rows[w] |= 1 << u
            open_w |= added
        open_u = 0
    return {(w, u) for w in range(pol.nw) for u in bits(rows[w])}


def box_frame(key):
    """The compatible frame for the single box signature whose key is
    (nw, nu, n, seed): cell (w, u) of N and of the relation's seed is bit
    w * nu + u."""
    nw, nu, n, seed = key
    w_ids, u_ids = {f"w{i}": i for i in range(nw)}, {f"u{i}": i for i in range(nu)}
    pol = Polarity.on_ids(w_ids, u_ids, [divmod(i, nu) for i in bits(n)])
    pairs = stabilize_box_relation(pol, [divmod(i, nu) for i in bits(seed)])
    rel = Relation(connective_sorts(SIG_BOX.connectives[0]), (nw, nu), pairs)
    return Frame(pol, SIG_BOX, {"box": rel})


def box_frames(max_w, max_u):
    """Every compatible frame for the single box signature of at most
    max_w x max_u points, once, as a box_frame key whose seed is the
    relation itself.

    Sizes come by (max(nw, nu), nw, nu), so every frame up to k x k comes
    before any larger one; then N and the relation ascend as bit keys.  A
    relation is compatible when each row is an intent and each column an
    extent.  Per N these are the AND-closures of N's rows and columns, and
    a relation built from intent rows is kept when it is also built from
    extent columns.
    """
    for k in range(1, max(max_w, max_u) + 1):
        for nw, nu in product(range(1, min(k, max_w) + 1), range(1, min(k, max_u) + 1)):
            if k not in (nw, nu):
                continue
            full_u, column = (1 << nu) - 1, sum(1 << w * nu for w in range(nw))
            for n in range(1 << nw * nu):
                rows = [n >> w * nu & full_u for w in range(nw)]
                cols = [n >> u & column for u in range(nu)]  # each at column 0's bits
                rels = _spans(meets(rows, full_u, 1 << nu), nw, nu)
                rels &= _spans(meets(cols, column, 1 << nw), nu, 1)
                for r in sorted(rels):
                    yield nw, nu, n, r


def _spans(lines, count, step):
    """Every OR over i < count of one of lines shifted by i * step."""
    found = {0}
    for i in range(count):
        found = {f | line << i * step for f in found for line in lines}
    return found


def component_embedding(f1, f2):
    """(pm, f1 + f2): the injective p-morphism of f1 into the coproduct.

    S is f1's N plus every (f1 W, f2 U) pair, T is f1's N reversed plus
    every (f1 U, f2 W) pair: the dual of the projection onto f1's algebra.
    """
    cop = coproduct([f1, f2])
    p1, p2 = f1.polarity, f2.polarity
    s_pairs = [*p1.pairs, *((w, p1.nu + u) for w in range(p1.nw) for u in range(p2.nu))]
    t_pairs = [*((u, w) for w, u in p1.pairs),
               *((u, p1.nw + w) for u in range(p1.nu) for w in range(p2.nw))]
    return PMorphism(f1, cop, s_pairs, t_pairs), cop


def diagonal_surjection(fr):
    """(pm, fr + fr): the surjective p-morphism of the coproduct onto fr.

    S is N from each copy, T is N reversed from each copy: the dual of the
    diagonal embedding of fr's algebra into the coproduct's.
    """
    cop = coproduct([fr, fr])
    pol = fr.polarity
    s_pairs = [(k * pol.nw + w, u) for k in (0, 1) for w, u in pol.pairs]
    t_pairs = [(k * pol.nu + u, w) for k in (0, 1) for w, u in pol.pairs]
    return PMorphism(cop, fr, s_pairs, t_pairs), cop
