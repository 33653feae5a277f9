"""Frame constructions: coproducts, filter-ideal frames, products.

The coproduct of frames keeps each component's structure and adds every
cross-component incidence and every mixed-component relation tuple.  The
filter-ideal frame of a finite normal algebra has filters as W points,
ideals as U points, overlap as incidence, and relation tuples witnessing
where operation values land; all are principal, so it is read off the
order cones.
"""

from __future__ import annotations

from itertools import product

from .algebra import FiniteAlgebra, build_complex_algebra, positions, verify_normality
from .bitset import bits
from .errors import FormatError, NonNormalAlgebraError
from .frame import Frame, Relation, connective_sorts
from .polarity import Polarity


def coproduct(frames):
    """The coproduct frame; points are renamed 'k:name' per component, k from 1."""
    if not frames:
        raise FormatError("coproduct needs at least one frame")
    sig = frames[0].signature
    for fr in frames[1:]:
        if fr.signature != sig:
            raise FormatError("coproduct components must share one signature")
    w_names = []
    u_names = []
    w_off = []
    u_off = []
    w_comp = []
    u_comp = []
    for k, fr in enumerate(frames):
        w_off.append(len(w_names))
        u_off.append(len(u_names))
        w_names.extend(f"{k + 1}:{n}" for n in fr.polarity.w_names)
        u_names.extend(f"{k + 1}:{n}" for n in fr.polarity.u_names)
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


def filter_ideal_frame(alg):
    """The filter-ideal frame of a finite normal lattice expansion, or
    NonNormalAlgebraError."""
    report = verify_normality(alg)
    if not report.passed:
        raise NonNormalAlgebraError(report.message)
    return _filter_ideal_frame(alg)


def _filter_ideal_frame(alg):
    """filter_ideal_frame without the check.  F(i) meets I(j) iff i <= j.
    A normal operation is monotone at its 1 and antitone at its d
    coordinates, so over the coordinates' filters and ideals it is least
    (F) or greatest (G) at their generators t: a head ideal I(h) meets
    its image iff op(t) <= h, a filter F(h) iff h <= op(t)."""
    pol = Polarity(
        [f"F({x})" for x in alg.names],
        [f"I({x})" for x in alg.names],
        [(i, j) for i in range(alg.size) for j in bits(alg.above[i])],
    )
    heads = {"W": alg.below, "U": alg.above}  # the heads of a value, by head sort
    relations = {}
    for conn in alg.signature.connectives:
        sorts = connective_sorts(conn)
        cone = heads[sorts[0]]
        args = product(range(alg.size), repeat=conn.arity)
        tuples = {(h,) + t for t, v in zip(args, alg.tables[conn.name]) for h in bits(cone[v])}
        relations[conn.name] = Relation(sorts, tuple(pol.size(s) for s in sorts), tuples)
    return Frame(pol, alg.signature, relations)


def filter_ideal_extension(frame, cap=None):
    """The filter-ideal frame of the frame's (normal) complex algebra."""
    return _filter_ideal_frame(build_complex_algebra(frame, cap=cap))


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

    n = a.size * b.size

    def spread(mask):
        """Bit i * |b| for each bit i of mask."""
        return sum(1 << (i * b.size) for i in bits(mask))

    # the cone of (i, j) is the product of the cones of i and j: each cone
    # of b is below 2**|b|, so spread(x) * y is the OR of y << (i * |b|)
    above = [sx * y for sx in map(spread, a.above) for y in b.above]
    below = [sx * y for sx in map(spread, a.below) for y in b.below]
    # element (i, j) is i * |b| + j: each argument tuple reads a's table at
    # the i's of its elements and b's at the j's
    a_of, b_of = [x // b.size for x in range(n)], [x % b.size for x in range(n)]
    ops = {}
    for conn in a.signature.connectives:
        ta, tb = a.tables[conn.name], b.tables[conn.name]
        at, bt = positions(a_of, conn.arity, a.size), positions(b_of, conn.arity, b.size)
        ops[conn.name] = tuple(ta[p] * b.size + tb[q] for p, q in zip(at, bt))
    # a product of lattices is a lattice: its tables and names wait for a reader
    return FiniteAlgebra.from_cones(names, above, below, a.signature, ops, lattice=True)
