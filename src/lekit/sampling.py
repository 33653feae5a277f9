"""Seeded random generators for frames, and the morphisms of the search.

Used by the test suite and by the bounded falsification search.  Random
unary relations are made compatible by alternately closing rows and
columns until nothing changes; closure only adds pairs, so this stops.
"""

from __future__ import annotations

from .algebra import build_complex_algebra
from .bitset import bits
from .constructions import coproduct
from .frame import Frame, Relation, connective_sorts
from .morphism import DualHom, dual_pmorphism
from .polarity import Polarity
from .syntax import Connective, Signature

SIG_BOX = Signature((Connective("box", "G", 1, ("1",)),))


def random_polarity(rng, nw, nu, density=0.5):
    w_names = [f"w{i}" for i in range(nw)]
    u_names = [f"u{i}" for i in range(nu)]
    pairs = [
        (w, u) for w in range(nw) for u in range(nu) if rng.random() < density
    ]
    return Polarity(w_names, u_names, pairs)


def stabilize_box_relation(pol, pairs):
    """Grow a W x U relation until all rows are intents and columns extents."""
    rows = [0] * pol.nw
    for w, u in pairs:
        rows[w] |= 1 << u
    changed = True
    while changed:
        changed = False
        for w in range(pol.nw):
            closed = pol.closure_u(rows[w])
            if closed != rows[w]:
                rows[w] = closed
                changed = True
        for u in range(pol.nu):
            col = sum(1 << w for w in range(pol.nw) if rows[w] >> u & 1)
            closed = pol.closure_w(col)
            if closed != col:
                for w in bits(closed & ~col):
                    rows[w] |= 1 << u
                changed = True
    return {(w, u) for w in range(pol.nw) for u in bits(rows[w])}


def random_box_frame(rng, max_w=3, max_u=3, density=0.5, rel_density=0.3):
    """A random compatible frame for the single box signature."""
    nw = rng.randint(1, max_w)
    nu = rng.randint(1, max_u)
    pol = random_polarity(rng, nw, nu, density)
    seed_pairs = [
        (w, u) for w in range(nw) for u in range(nu) if rng.random() < rel_density
    ]
    pairs = stabilize_box_relation(pol, seed_pairs)
    conn = SIG_BOX.connectives[0]
    sorts = connective_sorts(conn)
    rel = Relation(sorts, (pol.nw, pol.nu), {(w, u) for w, u in pairs})
    return Frame(pol, SIG_BOX, {"box": rel})


def component_embedding(f1, f2, cap=None):
    """The injective p-morphism of f1 into the coproduct of f1 and f2.

    Built by dualizing the projection of the coproduct's algebra onto
    f1's algebra.
    """
    cop = coproduct([f1, f2])
    dom = build_complex_algebra(cop, cap=cap, check=False)
    cod = build_complex_algebra(f1, cap=cap, check=False)
    nw1 = f1.polarity.nw
    full1 = (1 << nw1) - 1
    mapping = tuple(
        cod.index_of_extent(c.extent & full1) for c in dom.concepts
    )
    return dual_pmorphism(DualHom(mapping, dom, cod)), cop


def diagonal_surjection(fr, cap=None):
    """The surjective p-morphism from the doubled coproduct onto fr.

    Built by dualizing the diagonal embedding of fr's algebra into the
    algebra of fr + fr.
    """
    cop = coproduct([fr, fr])
    dom = build_complex_algebra(fr, cap=cap, check=False)
    cod = build_complex_algebra(cop, cap=cap, check=False)
    nw = fr.polarity.nw
    mapping = tuple(
        cod.index_of_extent(c.extent | (c.extent << nw)) for c in dom.concepts
    )
    return dual_pmorphism(DualHom(mapping, dom, cod)), cop
