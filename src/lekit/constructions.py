"""Frame constructions: coproducts, filter-ideal frames, products.

The coproduct of frames keeps each component's structure and adds every
cross-component incidence and every mixed-component relation tuple.  The
filter-ideal frame of a finite normal algebra has filters as W points,
ideals as U points, overlap as incidence, and relation tuples witnessing
where operation values land; all are principal, so it is read off the
order cones.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import add

from .algebra import FiniteAlgebra, build_complex_algebra, positions, verify_normality
from .bitset import bits
from .errors import FormatError, NonNormalAlgebraError
from .frame import Frame, Relation, connective_sorts
from .polarity import Polarity


def coproduct(frames):
    """The coproduct frame; points are renamed 'k:name' per component, k from 1.

    A component's points keep their order in one block of indices per
    sort, the blocks in component order.  The incidence and each relation
    hold every pair or tuple over the blocks that does not lie in one
    component, and each component's own, shifted to its blocks.
    """
    if not frames:
        raise FormatError("coproduct needs at least one frame")
    sig = frames[0].signature
    for fr in frames[1:]:
        if fr.signature != sig:
            raise FormatError("coproduct components must share one signature")
    pols = [fr.polarity for fr in frames]
    blocks = {"W": _blocks([pol.nw for pol in pols]), "U": _blocks([pol.nu for pol in pols])}
    w_ids = _renamed([pol.w_names for pol in pols])
    u_ids = _renamed([pol.u_names for pol in pols])
    pairs = _mixed([blocks["W"], blocks["U"]])
    for pol, w, u in zip(pols, blocks["W"], blocks["U"]):
        pairs.update(_shifted(pol.pairs, (w.start, u.start)))
    pol = Polarity.on_ids(w_ids, u_ids, pairs)
    relations = {}
    for conn in sig.connectives:
        sorts = connective_sorts(conn)
        coords = [blocks[s] for s in sorts]
        tuples = _mixed(coords)
        for k, fr in enumerate(frames):
            tuples.update(_shifted(fr.relations[conn.name].tuples, [b[k].start for b in coords]))
        relations[conn.name] = Relation(sorts, tuple(pol.size(s) for s in sorts), tuples)
    return Frame(pol, sig, relations)


def _renamed(components):
    """The name -> index dict of the names 'k:name' of each component's
    names in order, k from 1: distinct, as name_ids would check."""
    names = (f"{k}:{name}" for k, names in enumerate(components, 1) for name in names)
    return {name: i for i, name in enumerate(names)}


def _blocks(sizes):
    """The index range of each component's points of one sort, in order."""
    ends = list(accumulate(sizes))
    return [range(end - size, end) for size, end in zip(sizes, ends)]


def _mixed(coords):
    """The tuples over all points at each coordinate, coords[j] holding
    the components' blocks at coordinate j, that lie in no one component."""
    every = set(product(*[range(blocks[-1].stop) for blocks in coords]))
    return every.difference(*[product(*block) for block in zip(*coords)])


def _shifted(tuples, starts):
    """The tuples, each coordinate moved up by its block's start."""
    return [tuple(map(add, t, starts)) for t in tuples]


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
    """The filter-ideal frame of the frame's complex algebra, normal by the
    lemma in verify_normality's docstring once the build's compatibility
    check passes."""
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
