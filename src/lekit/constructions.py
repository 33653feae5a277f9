"""Frame constructions: coproducts, filter-ideal frames, products.

The coproduct of frames keeps each component's structure and adds every
cross-component incidence and every mixed-component relation tuple.  The
filter-ideal frame of a finite algebra has filters as W points, ideals
as U points, overlap as incidence, and relation tuples witnessing where
operation values land.
"""

from __future__ import annotations

from itertools import product

from .algebra import FiniteAlgebra, build_complex_algebra, verify_normality
from .bitset import bits
from .errors import FormatError, NonNormalAlgebraError
from .frame import Frame, Relation, connective_sorts
from .polarity import Polarity


def coproduct(frames, labels=None):
    """The coproduct frame; points are renamed 'k:name' per component."""
    if not frames:
        raise FormatError("coproduct needs at least one frame")
    sig = frames[0].signature
    for fr in frames[1:]:
        if fr.signature != sig:
            raise FormatError("coproduct components must share one signature")
    if labels is None:
        labels = [str(k + 1) for k in range(len(frames))]
    w_names = []
    u_names = []
    w_off = []
    u_off = []
    w_comp = []
    u_comp = []
    for k, fr in enumerate(frames):
        w_off.append(len(w_names))
        u_off.append(len(u_names))
        w_names.extend(f"{labels[k]}:{n}" for n in fr.polarity.w_names)
        u_names.extend(f"{labels[k]}:{n}" for n in fr.polarity.u_names)
        w_comp.extend([k] * fr.polarity.nw)
        u_comp.extend([k] * fr.polarity.nu)
    pairs = []
    for k, fr in enumerate(frames):
        for w, u in fr.polarity.pairs:
            pairs.append((w_off[k] + w, u_off[k] + u))
    for w, cw in enumerate(w_comp):
        for u, cu in enumerate(u_comp):
            if cw != cu:
                pairs.append((w, u))
    pol = Polarity(w_names, u_names, pairs)

    def comp(sort, v):
        return w_comp[v] if sort == "W" else u_comp[v]

    def off(sort, k):
        return w_off[k] if sort == "W" else u_off[k]

    relations = {}
    for conn in sig.connectives:
        sorts = connective_sorts(conn)
        sizes = tuple(pol.size(s) for s in sorts)
        tuples = set()
        for k, fr in enumerate(frames):
            for t in fr.relations[conn.name].tuples:
                tuples.add(tuple(v + off(s, k) for v, s in zip(t, sorts)))
        for t in product(*(range(sz) for sz in sizes)):
            comps = {comp(s, v) for v, s in zip(t, sorts)}
            if len(comps) > 1:
                tuples.add(t)
        relations[conn.name] = Relation(sorts, sizes, tuples)
    return Frame(pol, sig, relations)


def filters(alg):
    """All filters, as element-index frozensets, ordered by generator.

    In a finite lattice every filter is the up-set of its minimum, so the
    filters are exactly the principal ones, including the improper filter
    generated by bottom.
    """
    return [frozenset(bits(alg.above[a])) for a in range(alg.size)]


def ideals(alg):
    """All ideals, as element-index frozensets, ordered by generator."""
    return [frozenset(bits(alg.below[a])) for a in range(alg.size)]


def filter_ideal_frame(alg, check_normal=True):
    """The filter-ideal frame of a finite normal lattice expansion."""
    if check_normal:
        report = verify_normality(alg)
        if not report.passed:
            raise NonNormalAlgebraError(report.message)
    fs = filters(alg)
    is_ = ideals(alg)
    w_names = [f"F({x})" for x in alg.names]
    u_names = [f"I({x})" for x in alg.names]
    pairs = [
        (i, j)
        for i in range(alg.size)
        for j in range(alg.size)
        if fs[i] & is_[j]
    ]
    pol = Polarity(w_names, u_names, pairs)
    points = {"W": fs, "U": is_}  # at every coordinate, the head too
    relations = {}
    for conn in alg.signature.connectives:
        sorts = connective_sorts(conn)
        sizes = tuple(pol.size(s) for s in sorts)
        table = alg.ops[conn.name]
        head_sets, *coord_sets = map(points.get, sorts)
        tuples = set()
        for head in range(alg.size):
            for coords in product(*(range(alg.size) for _ in range(conn.arity))):
                members = [sorted(coord_sets[i][c]) for i, c in enumerate(coords)]
                hit = any(
                    table[tup] in head_sets[head] for tup in product(*members)
                )
                if hit:
                    tuples.add((head,) + coords)
        relations[conn.name] = Relation(sorts, sizes, tuples)
    return Frame(pol, alg.signature, relations)


def filter_ideal_extension(frame, cap=None):
    """The filter-ideal frame of the frame's complex algebra."""
    alg = build_complex_algebra(frame, cap=cap)
    return filter_ideal_frame(alg, check_normal=False)


def canonical_embedding(alg, fif_algebra):
    """The map a -> ({filters containing a}, {ideals containing a}).

    fif_algebra must be the complex algebra of filter_ideal_frame(alg);
    returns the element mapping as a list of concept indices.
    """
    return [fif_algebra.index_of_extent(alg.below[a]) for a in range(alg.size)]


def product_algebra(a, b):
    """The direct product of two finite algebras over one signature."""
    if a.signature != b.signature:
        raise FormatError("product components must share one signature")

    def names():
        return [f"({x}, {y})" for x in a.names for y in b.names]

    def pid(i, j):
        return i * b.size + j

    n = a.size * b.size

    def spread(mask):
        """Bit i * |b| for each bit i of mask."""
        return sum(1 << (i * b.size) for i in bits(mask))

    # the cone of (i, j) is the product of the cones of i and j: each cone
    # of b is below 2**|b|, so spread(x) * y is the OR of y << (i * |b|)
    above = [sx * y for sx in map(spread, a.above) for y in b.above]
    below = [sx * y for sx in map(spread, a.below) for y in b.below]
    ops = {}
    for conn in a.signature.connectives:
        table = {}
        for args in product(range(n), repeat=conn.arity):
            ai = tuple(x // b.size for x in args)
            bi = tuple(x % b.size for x in args)
            table[args] = pid(a.ops[conn.name][ai], b.ops[conn.name][bi])
        ops[conn.name] = table
    # a product of lattices is a lattice: its tables and names wait for a reader
    return FiniteAlgebra.from_cones(names, above, below, a.signature, ops, lattice=True)
