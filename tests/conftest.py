"""Shared fixtures and brute-force oracles for the test suite.

The oracles here recompute derived quantities from first principles
(subset scans, direct definitions) so that the library implementations
are checked against an independent code path.
"""

import json
from itertools import product
from pathlib import Path

import pytest

from lekit import (
    Frame,
    NotALatticeError,
    Polarity,
    Signature,
    enumerate_concepts,
    load_frame,
    load_morphism,
)
from lekit.algebra import NormalityReport
from lekit.bitset import bits, subsets
from lekit.frame import Relation, connective_sorts
from lekit.sampling import SIG_BOX

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def golden_path(name):
    return GOLDEN / name


@pytest.fixture(scope="session")
def frame_f1():
    return load_frame(golden_path("coproduct_F1.json"))


@pytest.fixture(scope="session")
def frame_f2():
    return load_frame(golden_path("coproduct_F2.json"))


@pytest.fixture(scope="session")
def m1_frames():
    src = load_frame(golden_path("morphism1_F2.json"))
    tgt = load_frame(golden_path("morphism1_F1.json"))
    return src, tgt


@pytest.fixture(scope="session")
def m1_morphism(m1_frames):
    src, tgt = m1_frames
    return load_morphism(golden_path("morphism1_ST.json"), src, tgt)


@pytest.fixture(scope="session")
def m2_morphism(frame_f1):
    tgt = load_frame(golden_path("morphism2_F2.json"))
    return load_morphism(golden_path("morphism2_ST.json"), frame_f1, tgt), tgt


@pytest.fixture(scope="session")
def bad_morphism(frame_f1):
    tgt = load_frame(golden_path("morphism1_F2.json"))
    return load_morphism(golden_path("nonmorphism_ST.json"), frame_f1, tgt), tgt


def load_json(name):
    with open(golden_path(name)) as fh:
        return json.load(fh)


def brute_concepts(pol):
    """Enumerate concepts by scanning all (extent, intent) pairs directly."""
    found = set()
    for x in subsets(pol.nw):
        y = pol.up(x)
        if pol.down(y) == x:
            found.add((x, y))
    for y in subsets(pol.nu):
        x = pol.down(y)
        if pol.up(x) == y:
            found.add((x, y))
    return found


def check_order(leq):
    """Raise NotALatticeError unless leq is a partial order, by triple scan."""
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            raise NotALatticeError("leq is not reflexive")
        for j in range(n):
            if leq[i][j] and leq[j][i] and i != j:
                raise NotALatticeError("leq is not antisymmetric")
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise NotALatticeError("leq is not transitive")


def build_table(names, cone, what):
    """Meet (cone = below-sets) or join (above-sets) table by candidate scan.

    The entry at (i, j) is the candidate in cone[i] & cone[j] whose own
    cone holds all the candidates.
    """
    table = []
    for i in range(len(names)):
        row = []
        for j in range(len(names)):
            cands = cone[i] & cone[j]
            best = None
            for k in bits(cands):
                if cands & ~cone[k] == 0:
                    best = k
                    break
            if best is None:
                raise NotALatticeError(
                    f"{what} of {names[i]!r} and {names[j]!r} does not exist"
                )
            row.append(best)
        table.append(tuple(row))
    return tuple(table)


def normality_by_lookup(alg):
    """verify_normality with every operation value looked up argument by argument."""
    n = alg.size
    for conn in alg.signature.connectives:
        table = alg.ops[conn.name]
        for i in range(conn.arity):
            e = conn.order_type[i]
            if conn.family == "F":
                inner = alg.join if e == "1" else alg.meet
                outer = alg.join
                unit = alg.bot if e == "1" else alg.top
                target = alg.bot
                law = ("join" if e == "1" else "meet") + "-to-join"
            else:
                inner = alg.meet if e == "1" else alg.join
                outer = alg.meet
                unit = alg.top if e == "1" else alg.bot
                target = alg.top
                law = ("meet" if e == "1" else "join") + "-to-meet"
            rest_positions = [k for k in range(conn.arity) if k != i]
            for rest in product(range(n), repeat=conn.arity - 1):
                def at(v):
                    args = [None] * conn.arity
                    for k, r in zip(rest_positions, rest):
                        args[k] = r
                    args[i] = v
                    return table[tuple(args)]

                if at(unit) != target:
                    return NormalityReport(
                        False, conn.name, i, law + " unit",
                        f"rest={tuple(alg.names[r] for r in rest)}",
                    )
                for a in range(n):
                    for b in range(a + 1, n):
                        if at(inner[a][b]) != outer[at(a)][at(b)]:
                            return NormalityReport(
                                False, conn.name, i, law,
                                f"a={alg.names[a]!r}, b={alg.names[b]!r}, "
                                f"rest={tuple(alg.names[r] for r in rest)}",
                            )
    return NormalityReport(True)


def brute_filters(alg):
    """All lattice filters of a finite algebra, by subset scan."""
    out = []
    for mask in subsets(alg.size):
        elems = list(bits(mask))
        if not elems:
            continue
        if any(
            alg.leq[a][b] and not (mask >> b & 1)
            for a in elems
            for b in range(alg.size)
        ):
            continue
        if any(not (mask >> alg.meet[a][b] & 1) for a in elems for b in elems):
            continue
        out.append(mask)
    return sorted(out)


def brute_ideals(alg):
    """All lattice ideals of a finite algebra, by subset scan."""
    out = []
    for mask in subsets(alg.size):
        elems = list(bits(mask))
        if not elems:
            continue
        if any(
            alg.leq[b][a] and not (mask >> b & 1)
            for a in elems
            for b in range(alg.size)
        ):
            continue
        if any(not (mask >> alg.join[a][b] & 1) for a in elems for b in elems):
            continue
        out.append(mask)
    return sorted(out)


def all_box_frames_2x2():
    """Every compatible frame with |W| = |U| = 2 over the box signature."""
    from lekit import check_compatibility

    cells = [(w, u) for w in range(2) for u in range(2)]
    sorts = connective_sorts(SIG_BOX.connectives[0])
    frames = []
    for nmask in subsets(4):
        pairs = [c for i, c in enumerate(cells) if nmask >> i & 1]
        pol = Polarity(["w0", "w1"], ["u0", "u1"], pairs)
        for rmask in subsets(4):
            tuples = {c for i, c in enumerate(cells) if rmask >> i & 1}
            fr = Frame(pol, SIG_BOX, {"box": Relation(sorts, (2, 2), tuples)})
            if check_compatibility(fr).passed:
                frames.append(fr)
    return frames
