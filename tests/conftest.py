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
    And,
    Bot,
    Conn,
    Connective,
    FormatError,
    Frame,
    Model,
    NotALatticeError,
    Or,
    Polarity,
    Prop,
    Sequent,
    Signature,
    SortError,
    Top,
    enumerate_concepts,
    load_frame,
    load_morphism,
    model_validates,
    props_of,
)
from lekit.algebra import NormalityReport
from lekit.bitset import bits
from lekit.fol import Eq, Exists, FAnd, FImp, Forall, NAtom, PredAtom, RAtom
from lekit.frame import Relation, connective_sorts
from lekit.sampling import SIG_BOX, random_polarity

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def subsets(n):
    """All subsets of range(n) as masks, in increasing mask order."""
    return range(1 << n)


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


def concept_leq_by_extents(concepts):
    """The order of a concept lattice as an n x n matrix: extent inclusion."""
    extents = [c.extent for c in concepts]
    return [[ei & ej == ei for ej in extents] for ei in extents]


def product_leq_by_pairs(a, b):
    """The order of a product algebra, pair by pair: (i1, j1) <= (i2, j2)."""
    n = a.size * b.size
    leq = [[False] * n for _ in range(n)]
    for i1 in range(a.size):
        for j1 in range(b.size):
            for i2 in range(a.size):
                for j2 in range(b.size):
                    leq[i1 * b.size + j1][i2 * b.size + j2] = a.leq[i1][i2] and b.leq[j1][j2]
    return leq


def leq_closure_fixpoint(n, pairs):
    """Reflexive-transitive closure of index pairs, rescanning until stable."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        leq[i][j] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if leq[i][j]:
                    for k in range(n):
                        if leq[j][k] and not leq[i][k]:
                            leq[i][k] = True
                            changed = True
    return leq


def cones_of(leq):
    """(above, below) masks of an n x n order matrix."""
    n = len(leq)
    above = tuple(sum(1 << j for j in range(n) if leq[i][j]) for i in range(n))
    below = tuple(sum(1 << j for j in range(n) if leq[j][i]) for i in range(n))
    return above, below


def find_isomorphism_by_leq(a, b):
    """find_isomorphism (no rng) with every order test read from the matrices."""
    if a.size != b.size or a.signature != b.signature:
        return None

    def invariant(alg, x):
        fixed = tuple(
            alg.ops[c.name][(x,)] == x for c in alg.signature.connectives if c.arity == 1
        )
        return (sum(alg.leq[y][x] for y in range(alg.size)), sum(alg.leq[x]), fixed)

    inv_a = [invariant(a, x) for x in range(a.size)]
    inv_b = [invariant(b, y) for y in range(b.size)]
    if sorted(inv_a) != sorted(inv_b):
        return None
    candidates = [[y for y in range(b.size) if inv_b[y] == inv_a[x]] for x in range(a.size)]
    order = sorted(range(a.size), key=lambda x: len(candidates[x]))
    mapping = [None] * a.size

    def ops_ok():
        return all(
            mapping[val] == b.ops[c.name][tuple(mapping[x] for x in args)]
            for c in a.signature.connectives
            for args, val in a.ops[c.name].items()
        )

    def extend(k):
        if k == len(order):
            return ops_ok()
        x = order[k]
        for y in candidates[x]:
            if y in mapping or any(
                a.leq[x][x2] != b.leq[y][mapping[x2]] or a.leq[x2][x] != b.leq[mapping[x2]][y]
                for x2 in order[:k]
            ):
                continue
            mapping[x] = y
            if extend(k + 1):
                return True
            mapping[x] = None
        return False

    return list(mapping) if extend(0) else None


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


def renamed(phi, names):
    """phi (a formula or sequent) with propositions and connectives renamed."""
    if isinstance(phi, Sequent):
        return Sequent(renamed(phi.lhs, names), renamed(phi.rhs, names))
    if isinstance(phi, Prop):
        return Prop(names[phi.name])
    if isinstance(phi, (And, Or)):
        return type(phi)(renamed(phi.left, names), renamed(phi.right, names))
    if isinstance(phi, Conn):
        return Conn(names[phi.name], tuple(renamed(a, names) for a in phi.args))
    return phi


def frame_validates_by_models(frame, sequent):
    """Frame validity as (valid, counter-valuation, valuations checked).

    Evaluates a Model per valuation with eval_formula, in product order
    over the enumerated concepts.
    """
    concepts = enumerate_concepts(frame.polarity)
    props = sorted(props_of(sequent))
    checked = 0
    for combo in product(concepts, repeat=len(props)):
        model = Model(frame, dict(zip(props, combo)))
        checked += 1
        if not model_validates(model, sequent):
            return False, dict(zip(props, combo)), checked
    return True, None, checked


def algebra_validates_by_walk(alg, sequent):
    """Algebra validity by walking the formula tree under each assignment."""
    props = sorted(props_of(sequent))

    def ev(phi, env):
        if isinstance(phi, Prop):
            return env[phi.name]
        if isinstance(phi, Top):
            return alg.top
        if isinstance(phi, Bot):
            return alg.bot
        if isinstance(phi, And):
            return alg.meet[ev(phi.left, env)][ev(phi.right, env)]
        if isinstance(phi, Or):
            return alg.join[ev(phi.left, env)][ev(phi.right, env)]
        return alg.ops[phi.name][tuple(ev(a, env) for a in phi.args)]

    for combo in product(range(alg.size), repeat=len(props)):
        env = dict(zip(props, combo))
        if not alg.leq[ev(sequent.lhs, env)][ev(sequent.rhs, env)]:
            return False
    return True


def eval_fo_recursive(model, fof, env=None):
    """Tarskian evaluation by recursion over the tree, env a dict of Vars."""
    pol = model.frame.polarity
    env = env or {}

    def value(var):
        try:
            return env[var]
        except KeyError:
            raise SortError(f"unbound variable {var.name}") from None

    if isinstance(fof, NAtom):
        return pol.n(value(fof.x), value(fof.y))
    if isinstance(fof, RAtom):
        rel = model.frame.relations.get(fof.name)
        if rel is None:
            raise FormatError(f"no relation for connective {fof.name!r}")
        return tuple(value(v) for v in fof.args) in rel.tuples
    if isinstance(fof, PredAtom):
        concept = model.valuation.get(fof.prop)
        if concept is None:
            raise FormatError(f"no value assigned to proposition {fof.prop!r}")
        mask = concept.extent if fof.kind == "ext" else concept.intent
        return bool(mask >> value(fof.var) & 1)
    if isinstance(fof, Eq):
        return value(fof.left) == value(fof.right)
    if isinstance(fof, FAnd):
        return eval_fo_recursive(model, fof.left, env) and eval_fo_recursive(
            model, fof.right, env
        )
    if isinstance(fof, FImp):
        return not eval_fo_recursive(model, fof.left, env) or eval_fo_recursive(
            model, fof.right, env
        )
    if isinstance(fof, (Forall, Exists)):
        size = pol.nw if fof.var.sort == "W" else pol.nu
        results = (
            eval_fo_recursive(model, fof.body, {**env, fof.var: v}) for v in range(size)
        )
        return all(results) if isinstance(fof, Forall) else any(results)
    raise TypeError(f"not a first order formula: {fof!r}")


def boolean_frame(rng, k, connectives):
    """A frame on N = "not equal" over k points, with random relations.

    Every subset is stable under that polarity, so any relation is
    compatible and the complex algebra is normal.
    """
    pol = Polarity(
        [f"w{i}" for i in range(k)],
        [f"u{i}" for i in range(k)],
        [(w, u) for w in range(k) for u in range(k) if w != u],
    )
    sig = Signature(tuple(connectives))
    relations = {}
    for conn in connectives:
        sorts = connective_sorts(conn)
        tuples = {
            t
            for t in product(range(k), repeat=conn.arity + 1)
            if rng.random() < 0.5
        }
        relations[conn.name] = Relation(sorts, (k,) * (conn.arity + 1), tuples)
    return Frame(pol, sig, relations)


# Unary and binary connectives of both families, antitone coordinates and a
# constant, so every kind of program step and section read is exercised.
SIG_MIX = Signature(
    (
        Connective("box", "G", 1, ("1",)),
        Connective("dia", "F", 1, ("1",)),
        Connective("f", "F", 2, ("1", "d")),
        Connective("g", "G", 2, ("d", "1")),
        Connective("c", "F", 0, ()),
    )
)
PROPS = ("p", "q", "r")


def random_frame(rng, sig, max_size):
    """A frame with random relations; most are not compatible."""
    pol = random_polarity(rng, rng.randint(1, max_size), rng.randint(1, max_size))
    relations = {}
    for conn in sig.connectives:
        sorts = connective_sorts(conn)
        sizes = tuple(pol.size(s) for s in sorts)
        tuples = {
            t for t in product(*(range(n) for n in sizes)) if rng.random() < 0.4
        }
        relations[conn.name] = Relation(sorts, sizes, tuples)
    return Frame(pol, sig, relations)
