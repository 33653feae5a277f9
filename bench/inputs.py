"""Seeded input generators for the benchmark workloads.

Every generator draws from the random.Random it is given and returns plain
data: frame and morphism dicts in lekit's file format, polarity dicts and
sequent texts.  Turning that data into lekit objects is the benchmark's
set-up, timed separately.  lekit itself makes three input families:
stabilize_box_relation grows compatible box relations, filter_ideal_frame
gives the Boolean filter-ideal frames, and the sampling helpers dualize the
diagonal and component maps into p-morphisms.  All of them are
deterministic, so the same seed gives the same inputs.
"""

from __future__ import annotations

BOX_SIG = {
    "connectives": [{"name": "box", "family": "G", "arity": 1, "order_type": ["1"]}]
}
# join is a normal G operation of order type (1, 1) on a Boolean algebra
# (it distributes over meets and keeps top), difference a - b is a normal F
# operation of order type (1, d).
BINARY_SIG = {
    "connectives": [
        {"name": "join", "family": "G", "arity": 2, "order_type": ["1", "1"]},
        {"name": "diff", "family": "F", "arity": 2, "order_type": ["1", "d"]},
    ]
}
BOX_CONNS = (("box", 1),)
BINARY_CONNS = (("join", 2), ("diff", 2))

DENSITY = 0.7  # incidence density of the random polarities
REL_DENSITY = 0.3  # density of the pairs that stabilization grows into R
# A drawn polarity is kept only when its concept count is within this share
# of the size class's target.  Complex-algebra work grows like the cube of
# the concept count, which at 16x16 ranges over 3x between seeds; the window
# keeps a run's work set by its size class rather than by its seed.  Where an
# order target is given, the number of comparable concept pairs, which sets
# the cost of the algebra's order check and tables, must also be within it.
WINDOW = 0.02


def extents(nw, nu, rows):
    """All concept extents: the intersections of the columns."""
    cols = [sum(1 << w for w in range(nw) if rows[w] >> u & 1) for u in range(nu)]
    found = {(1 << nw) - 1}
    for col in cols:
        found |= {e & col for e in found}
    return found


def _near(value, target):
    return abs(value - target) <= WINDOW * target


def _rows(rng, nw, nu, density, target, order_target=None):
    while True:
        rows = [
            sum(1 << u for u in range(nu) if rng.random() < density) for _ in range(nw)
        ]
        if target is None:
            return rows
        found = extents(nw, nu, rows)
        if not _near(len(found), target):
            continue
        if order_target is None or _near(
            sum(1 for a in found for b in found if a & ~b == 0), order_target
        ):
            return rows


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def polarity_data(rng, n, target=None, density=DENSITY):
    """A random n x n polarity as {"W", "U", "N"} with named points."""
    rows = _rows(rng, n, n, density, target)
    ws, us = _names("w", n), _names("u", n)
    return {
        "W": ws,
        "U": us,
        "N": [[ws[w], us[u]] for w in range(n) for u in range(n) if rows[w] >> u & 1],
    }


def box_frame_data(lk, rng, nw, nu, target=None, order_target=None, density=DENSITY):
    """A compatible box frame: random polarity, stabilized random relation."""
    from lekit.sampling import stabilize_box_relation

    rows = _rows(rng, nw, nu, density, target, order_target)
    pairs = [(w, u) for w in range(nw) for u in range(nu) if rows[w] >> u & 1]
    ws, us = _names("w", nw), _names("u", nu)
    pol = lk.Polarity(ws, us, pairs)
    seed_pairs = [
        (w, u) for w in range(nw) for u in range(nu) if rng.random() < REL_DENSITY
    ]
    rel = sorted(stabilize_box_relation(pol, seed_pairs))
    return {
        "signature": BOX_SIG,
        "W": ws,
        "U": us,
        "N": [[ws[w], us[u]] for w, u in pairs],
        "relations": {"box": [[ws[w], us[u]] for w, u in rel]},
    }


def small_box_frame_data(lk, rng, max_side):
    return box_frame_data(
        lk, rng, rng.randint(1, max_side), rng.randint(1, max_side), density=0.5
    )


def boolean_fif_data(lk, rng, k):
    """Filter-ideal frame of 2^k with join and difference, points shuffled."""
    n = 1 << k
    sets = list(range(n))
    rng.shuffle(sets)
    index = {s: i for i, s in enumerate(sets)}
    leq = [[a & ~b == 0 for b in sets] for a in sets]
    ops = {
        "join": {(i, j): index[a | b] for i, a in enumerate(sets) for j, b in enumerate(sets)},
        "diff": {(i, j): index[a & ~b] for i, a in enumerate(sets) for j, b in enumerate(sets)},
    }
    sig = lk.signature_from_dict(BINARY_SIG)
    alg = lk.FiniteAlgebra([f"s{s}" for s in sets], leq, sig, ops)
    return lk.filter_ideal_frame(alg).to_dict()


def diagonal_surjection_data(lk, rng, max_side):
    """Source fr + fr, target fr, and the surjective p-morphism between them."""
    from lekit.sampling import diagonal_surjection

    fr = lk.frame_from_dict(small_box_frame_data(lk, rng, max_side))
    pm, doubled = diagonal_surjection(fr)
    return {"source": doubled.to_dict(), "target": fr.to_dict(), "morphism": pm.to_dict()}


def component_embedding_data(lk, rng, max_side):
    """Source f1, target f1 + f2, and the injective p-morphism between them."""
    from lekit.sampling import component_embedding

    f1 = lk.frame_from_dict(small_box_frame_data(lk, rng, max_side))
    f2 = lk.frame_from_dict(small_box_frame_data(lk, rng, max_side))
    pm, cop = component_embedding(f1, f2)
    return {"source": f1.to_dict(), "target": cop.to_dict(), "morphism": pm.to_dict()}


def identity_data(frame):
    """The identity p-morphism of a frame dict: S is N, T its converse."""
    return {
        "source": frame,
        "target": frame,
        "morphism": {"S": frame["N"], "T": [[u, w] for w, u in frame["N"]]},
    }


# Formulas are trees of tuples: ("prop", name), ("top",), ("bot",),
# ("and", l, r), ("or", l, r) and ("conn", name, args).


def formula(rng, conns, props, depth):
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(list(props) + ["top", "bot"])
        return (leaf,) if leaf in ("top", "bot") else ("prop", leaf)
    pick = rng.choice(["and", "or"] + [name for name, _ in conns])
    if pick in ("and", "or"):
        return (
            pick,
            formula(rng, conns, props, depth - 1),
            formula(rng, conns, props, depth - 1),
        )
    arity = dict(conns)[pick]
    return ("conn", pick, tuple(formula(rng, conns, props, depth - 1) for _ in range(arity)))


def props_in(tree):
    if tree[0] == "prop":
        return {tree[1]}
    if tree[0] in ("and", "or"):
        return props_in(tree[1]) | props_in(tree[2])
    if tree[0] == "conn":
        return set().union(*(props_in(a) for a in tree[2]))
    return set()


def render(tree):
    """Fully parenthesized text in lekit's formula syntax."""
    tag = tree[0]
    if tag == "prop":
        return tree[1]
    if tag in ("top", "bot"):
        return tag
    if tag == "and":
        return f"({render(tree[1])} /\\ {render(tree[2])})"
    if tag == "or":
        return f"({render(tree[1])} \\/ {render(tree[2])})"
    return f"{tree[1]}({', '.join(render(a) for a in tree[2])})"


def sequent(rng, conns, props, depth):
    """A drawn sequent (lhs, rhs) in which every proposition of props occurs."""
    while True:
        lhs = formula(rng, conns, props, depth)
        rhs = formula(rng, conns, props, depth)
        if props_in(lhs) | props_in(rhs) == set(props):
            return lhs, rhs


def shape(*trees):
    """(connective nodes, lattice nodes) of formula trees, summed."""
    conns = lats = 0
    for tree in trees:
        if tree[0] == "conn":
            c, lat = shape(*tree[2])
            conns, lats = conns + 1 + c, lats + lat
        elif tree[0] in ("and", "or"):
            c, lat = shape(tree[1], tree[2])
            conns, lats = conns + c, lats + 1 + lat
    return conns, lats


def lattice_law_sequent(rng, conns, props, depth, target):
    """A /\\ B |- A \\/ C for drawn A, B and C, kept when their shapes sum to target.

    The sequent holds in every lattice, so frame_validates scans every
    valuation, and with the number of connective and lattice nodes fixed its
    work is set by the frame rather than by the draw.
    """
    while True:
        a, b, c = (formula(rng, conns, props, depth) for _ in range(3))
        if props_in(a) | props_in(b) | props_in(c) != set(props):
            continue
        if shape(a, b, c) == target:
            return ("and", a, b), ("or", a, c)


def translation_weight(fof, n, depth=0):
    """Atoms of a first order formula, each weighted by n ** (quantifier depth).

    This is how many atoms a full evaluation on n points per sort visits.
    """
    kind = type(fof).__name__
    if kind in ("Forall", "Exists"):
        return translation_weight(fof.body, n, depth + 1)
    if kind in ("FAnd", "FImp"):
        return translation_weight(fof.left, n, depth) + translation_weight(fof.right, n, depth)
    return n**depth


def sequent_text(seq):
    return f"{render(seq[0])} |- {render(seq[1])}"
