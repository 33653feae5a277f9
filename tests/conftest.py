"""Shared fixtures and brute-force oracles for the test suite.

The oracles here recompute derived quantities from first principles
(subset scans, direct definitions) so that the library implementations
are checked against an independent code path.
"""

import json
from functools import partial
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from lekit import (
    And,
    Bot,
    CapExceededError,
    Conn,
    Connective,
    FiniteAlgebra,
    FormatError,
    Frame,
    IncompatibleFrameError,
    InvalidPMorphismError,
    Model,
    NotALatticeError,
    Or,
    PMorphism,
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
from lekit import emit, semantics
from lekit.algebra import NormalityReport, build_complex_algebra
from lekit.bitset import bits, meet_rows, meet_table
from lekit.constructions import coproduct, filter_ideal_extension
from lekit.definability import CONSTRUCTIONS, FalsifyReport, SearchMiss, check_condition
from lekit.fol import Eq, Exists, FAnd, FImp, Forall, NAtom, PredAtom, RAtom, Var, VarGen
from lekit.frame import (
    CompatibilityReport,
    Relation,
    check_compatibility,
    connective_sorts,
    section_zero,
)
from lekit.morphism import DualHom, PMorphismReport, dual_pmorphism
from lekit.polarity import DEFAULT_CONCEPT_CAP, Concept
from lekit.sampling import SIG_BOX, box_frame
from lekit.syntax import BOT, TOP

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


def next_closures(close, n, cap):
    """The closed subsets of range(n) under close, in increasing mask order.

    Ganter's NextClosure: the successor of a closed set A is the first
    closure of (A above i) + {i}, over the bits i not in A from the lowest,
    that adds nothing above i.  Bit n-1 is the most significant, so the
    lectic order is the integer order of the masks.  Raises
    CapExceededError when a closed set beyond the first cap is reached.
    """
    found = []
    full = (1 << n) - 1
    a = close(0)
    while True:
        if len(found) >= cap:
            raise CapExceededError(
                f"more than {cap} concepts; raise --cap or LEKIT_CAP to proceed"
            )
        found.append(a)
        if a == full:
            return found
        for i in range(n):
            bit = 1 << i
            if a & bit:
                continue
            above = a & ~((bit << 1) - 1)
            b = close(above | bit)
            if b & ~a & ~(bit - 1) == bit:
                a = b
                break


def concepts_by_next_closure(pol, cap):
    """The concepts as (extent, intent) pairs sorted by extent, by NextClosure
    over the smaller sort with a full down(up(.)) per candidate."""
    if pol.nw <= pol.nu:
        return [(e, pol.up(e)) for e in next_closures(pol.closure_w, pol.nw, cap)]
    return sorted((pol.down(i), i) for i in next_closures(pol.closure_u, pol.nu, cap))


def close_by_one(rows, close, n, top, cap):
    """The concepts of a polarity as (closed set, partner) pairs, unordered.

    Kuznetsov's Close-by-One over range(n): rows[i] is the partner of
    point i, and close maps a partner back to its closed set.  A node is a
    closed set A with its partner B and a start; its child at a point
    i >= start outside A has partner B & rows[i] (partners are closed
    under AND) and closed set close of that, and is kept only when it adds
    no point below i, so every closed set is reached once.  Raises
    CapExceededError when a closed set beyond the first cap is reached.
    """
    found = []
    stack = [(close(top), top, 0)]
    while stack:
        a, b, start = stack.pop()
        if len(found) >= cap:
            raise CapExceededError(
                f"more than {cap} concepts; raise --cap or LEKIT_CAP to proceed"
            )
        found.append((a, b))
        for i in range(start, n):
            bit = 1 << i
            if a & bit:
                continue
            meet = b & rows[i]
            closed = close(meet)
            if not (closed ^ a) & (bit - 1):
                stack.append((closed, meet, i + 1))
    return found


def concepts_by_close_by_one(pol, cap):
    """The concepts as (extent, intent) pairs sorted by extent, by
    Close-by-One over the smaller sort with closures read from byte tables:
    the enumeration enumerate_concepts used before the AND-closure."""
    if pol.nw <= pol.nu:
        down = meet_table(pol.cols, pol.full_w)
        return sorted(close_by_one(pol.rows, down, pol.nw, pol.full_u, cap))
    up = meet_table(pol.rows, pol.full_u)
    return sorted((e, i) for i, e in close_by_one(pol.cols, up, pol.nu, pol.full_w, cap))


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


def le(alg, i, j):
    """Whether element i is below element j, read from the cones."""
    return bool(alg.above[i] >> j & 1)


def eager_build(alg, names):
    """alg built again the way an order given by the user is built: from its
    cones with lattice=False, so the order is checked, both tables are filled
    and names, given here by the caller, are the element names.  The oracle
    of the lattices by construction, which skip all three.  Raises
    NotALatticeError where that build refuses alg's order.
    """
    return FiniteAlgebra.from_cones(names, alg.above, alg.below, alg.signature, alg.ops)


def eager_complex_algebra(frame, cap=DEFAULT_CONCEPT_CAP):
    """The fields of the frame's complex algebra, all computed at once as
    the eager build did: the Concepts by Close-by-One, sorted by extent;
    above[i] (below[i]) the AND, over the points of concept i's extent
    (intent), of the mask of the concepts whose extent (intent) holds the
    point; top and bot the concepts whose below (above) cone is full;
    names from the Concepts; and the tables by one section_zero per tuple.
    The oracle of ComplexAlgebra, which computes most of these on first read.
    """
    pol = frame.polarity
    concepts = [Concept(e, i) for e, i in concepts_by_close_by_one(pol, cap)]
    full = (1 << len(concepts)) - 1
    holding_w = [mask_of(k for k, c in enumerate(concepts) if c.extent >> w & 1) for w in range(pol.nw)]
    holding_u = [mask_of(k for k, c in enumerate(concepts) if c.intent >> u & 1) for u in range(pol.nu)]
    above = tuple(meet_rows(holding_w, c.extent, full) for c in concepts)
    below = tuple(meet_rows(holding_u, c.intent, full) for c in concepts)
    return SimpleNamespace(
        concepts=concepts,
        above=above,
        below=below,
        top=below.index(full),
        bot=above.index(full),
        names=tuple(c.show(pol) for c in concepts),
        ops=complex_algebra_ops_by_family(frame, concepts),
    )


def concept_names(alg):
    """The element names of a complex algebra: each concept's extent and
    intent as sets of point names."""
    pol = alg.frame.polarity
    return [
        f"({_names_shown(c.extent, pol.w_names)}, {_names_shown(c.intent, pol.u_names)})"
        for c in alg.concepts
    ]


def product_names(a_names, b_names):
    """The element names of a product algebra, from its factors' names."""
    return [f"({x}, {y})" for x in a_names for y in b_names]


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


def columns_by_tuples(alg):
    """Every (connective, coordinate, rest) column as algebra._columns yields
    it, each entry looked up by an argument tuple built for it."""
    n = alg.size
    downs, ups = set(alg.below), set(alg.above)
    for conn in alg.signature.connectives:
        table = alg.ops[conn.name]
        gather = alg.below if conn.family == "F" else alg.above
        for i in range(conn.arity):
            monotone = conn.order_type[i] == "1"
            principal = downs if (conn.family == "F") == monotone else ups
            for rest in product(range(n), repeat=conn.arity - 1):
                col = [table[rest[:i] + (v,) + rest[i:]] for v in range(n)]
                yield conn, i, rest, col, gather, principal


def residuated_per_cone(col, gather, principal):
    """algebra._residuated with one OR per gather cone, each cone cut down
    to the column's image."""
    pre = {}
    for v, x in enumerate(col):
        pre[x] = pre.get(x, 0) | 1 << v
    image = sum(1 << x for x in pre)
    for cone in gather:
        got = 0
        for x in bits(cone & image):
            got |= pre[x]
        if got not in principal:
            return False
    return True


def residuated(alg):
    """Whether every operation is residuated in each coordinate: the verdict
    of verify_normality, without the tables or a witness, computed apart
    from algebra's column read and cut loop."""
    return all(
        residuated_per_cone(col, gather, principal)
        for _, _, _, col, gather, principal in columns_by_tuples(alg)
    )


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


def _unary_section(rel, mask, full):
    """Where the program calls meet_rows on a unary relation's one row:
    section_zero on the relation itself."""
    return semantics.section_zero(rel, (mask,))


def _no_entries(*args):
    """Where the program fills a memo: no entry."""
    return ()


def frame_validates_memo_only(frame, sequent):
    """frame_validates with every section memo empty at the start, so each
    section is one section_zero at its first read, as (valid,
    counter-valuation, valuations checked).  Runs the same program and
    plans; only the one-proposition table fill is left out."""
    program = semantics._Program(sequent, frame.signature)
    concepts = enumerate_concepts(frame.polarity)
    pol = frame.polarity
    pairs = [(c.extent, c.intent) for c in concepts]
    by_ext = dict(pairs)
    by_int = {i: e for e, i in pairs}
    fns = emit.compiled(semantics._emit_program, ("frame",) + program.key)
    rels = [frame.relations[c] for c in program.conns]
    sections = [rel if rel.arity == 1 else partial(semantics.section_zero, rel) for rel in rels]
    args = (by_ext, by_int, pol.up, pol.down, pol.full_w, pol.full_u, sections)
    args += (_unary_section, _no_entries, product)  # a fill adds no entry
    picked = semantics._failure(fns, args, pairs, pairs[-1:], pairs[:1], first=True)
    if picked is None:
        return True, None, len(concepts) ** len(program.props)
    counter = {p: concepts[i] for p, i in zip(program.props, picked)}
    return False, counter, semantics._position(picked, len(concepts))


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
    """Tarskian evaluation by recursion over the tree, env a dict of Vars.

    A free variable read must be bound in env to a point of its sort.
    """
    pol = model.frame.polarity
    free = env or {}
    sizes = {"W": pol.nw, "U": pol.nu}

    def value(var, bound):
        if var in bound:
            return bound[var]
        try:
            v = free[var]
        except KeyError:
            raise SortError(f"unbound variable {var.name}") from None
        if not (isinstance(v, int) and 0 <= v < sizes.get(var.sort, 0)):
            raise SortError(
                f"variable {var.name} is bound to {v!r}, not a point of sort {var.sort}"
            )
        return v

    def ev(f, bound):
        if isinstance(f, NAtom):
            return pol.n(value(f.x, bound), value(f.y, bound))
        if isinstance(f, RAtom):
            rel = model.frame.relations.get(f.name)
            if rel is None:
                raise FormatError(f"no relation for connective {f.name!r}")
            return tuple(value(v, bound) for v in f.args) in rel.tuples
        if isinstance(f, PredAtom):
            concept = model.valuation.get(f.prop)
            if concept is None:
                raise FormatError(f"no value assigned to proposition {f.prop!r}")
            mask = concept.extent if f.kind == "ext" else concept.intent
            return bool(mask >> value(f.var, bound) & 1)
        if isinstance(f, Eq):
            return value(f.left, bound) == value(f.right, bound)
        if isinstance(f, FAnd):
            return ev(f.left, bound) and ev(f.right, bound)
        if isinstance(f, FImp):
            return not ev(f.left, bound) or ev(f.right, bound)
        if isinstance(f, (Forall, Exists)):
            size = pol.nw if f.var.sort == "W" else pol.nu
            results = (ev(f.body, {**bound, f.var: v}) for v in range(size))
            return all(results) if isinstance(f, Forall) else any(results)
        raise TypeError(f"not a first order formula: {f!r}")

    return ev(fof, {})


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


def random_polarity(rng, nw, nu, density=0.5):
    w_names = [f"w{i}" for i in range(nw)]
    u_names = [f"u{i}" for i in range(nu)]
    pairs = [
        (w, u) for w in range(nw) for u in range(nu) if rng.random() < density
    ]
    return Polarity(w_names, u_names, pairs)


def stabilize_box_relation_by_passes(pol, pairs):
    """stabilize_box_relation's oracle: close every row, then every column
    rebuilt bit by bit from the rows, until a whole pass changes nothing."""
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


def draw_box_key(rng, max_w=3, max_u=3, density=0.5, rel_density=0.3):
    """The rng calls of one random_box_frame, as the box_frame key
    (nw, nu, n, seed): cell (w, u) of N and of the relation's seed is bit
    w * nu + u."""
    nw, nu = rng.randint(1, max_w), rng.randint(1, max_u)
    cells, coin = range(nw * nu), rng.random
    n = sum(1 << i for i in cells if coin() < density)
    return nw, nu, n, sum(1 << i for i in cells if coin() < rel_density)


def random_box_frame(rng, max_w=3, max_u=3, density=0.5, rel_density=0.3):
    """A random compatible frame for the single box signature."""
    return box_frame(draw_box_key(rng, max_w, max_u, density, rel_density))


def random_box_frame_by_polarity(rng, max_w=3, max_u=3, density=0.5, rel_density=0.3):
    """random_box_frame as one random_polarity and one stabilization by
    passes per call, with the same rng calls: the drawer's oracle."""
    nw = rng.randint(1, max_w)
    nu = rng.randint(1, max_u)
    pol = random_polarity(rng, nw, nu, density)
    seed_pairs = [
        (w, u) for w in range(nw) for u in range(nu) if rng.random() < rel_density
    ]
    pairs = stabilize_box_relation_by_passes(pol, seed_pairs)
    rel = Relation(connective_sorts(SIG_BOX.connectives[0]), (nw, nu), pairs)
    return Frame(pol, SIG_BOX, {"box": rel})


def random_relation(rng, pol, conn):
    """A relation for conn on pol holding each tuple with probability 0.4."""
    sorts = connective_sorts(conn)
    sizes = tuple(pol.size(s) for s in sorts)
    tuples = {
        t for t in product(*(range(n) for n in sizes)) if rng.random() < 0.4
    }
    return Relation(sorts, sizes, tuples)


def random_frame(rng, sig, max_size):
    """A frame with random relations; most are not compatible."""
    pol = random_polarity(rng, rng.randint(1, max_size), rng.randint(1, max_size))
    relations = {conn.name: random_relation(rng, pol, conn) for conn in sig.connectives}
    return Frame(pol, sig, relations)


def random_formula(rng, sig, props, max_depth):
    if max_depth == 0 or rng.random() < 0.3:
        return rng.choice([Prop(p) for p in props] + [TOP, BOT])
    choices = ["and", "or"] + [c.name for c in sig.connectives]
    pick = rng.choice(choices)
    if pick == "and":
        return And(
            random_formula(rng, sig, props, max_depth - 1),
            random_formula(rng, sig, props, max_depth - 1),
        )
    if pick == "or":
        return Or(
            random_formula(rng, sig, props, max_depth - 1),
            random_formula(rng, sig, props, max_depth - 1),
        )
    conn = sig.get(pick)
    return Conn(
        pick,
        tuple(
            random_formula(rng, sig, props, max_depth - 1) for _ in range(conn.arity)
        ),
    )


def random_sequent(rng, sig, props, max_depth):
    return Sequent(
        random_formula(rng, sig, props, max_depth),
        random_formula(rng, sig, props, max_depth),
    )


def identity_pmorphism(fr):
    """The identity p-morphism: S is the incidence, T its converse."""
    pol = fr.polarity
    s_pairs = {(w, u) for w, u in pol.pairs}
    t_pairs = {(u, w) for w, u in pol.pairs}
    return PMorphism(fr, fr, s_pairs, t_pairs)


def component_embedding_by_duality(f1, f2, cap=None):
    """component_embedding, as the dual of the projection of the
    coproduct's algebra onto f1's algebra."""
    cop = coproduct([f1, f2])
    dom = build_complex_algebra(cop, cap=cap, check=False)
    cod = build_complex_algebra(f1, cap=cap, check=False)
    full1 = (1 << f1.polarity.nw) - 1
    mapping = tuple(cod.index_of_extent(c.extent & full1) for c in dom.concepts)
    return dual_pmorphism(DualHom(mapping, dom, cod)), cop


def diagonal_surjection_by_duality(fr, cap=None):
    """diagonal_surjection, as the dual of the diagonal embedding of fr's
    algebra into the algebra of fr + fr."""
    cop = coproduct([fr, fr])
    dom = build_complex_algebra(fr, cap=cap, check=False)
    cod = build_complex_algebra(cop, cap=cap, check=False)
    nw = fr.polarity.nw
    mapping = tuple(cod.index_of_extent(c.extent | (c.extent << nw)) for c in dom.concepts)
    return dual_pmorphism(DualHom(mapping, dom, cod)), cop


def random_pmorphism(rng, src, tgt):
    """Random S and T pairs from src to tgt; mostly not a p-morphism."""
    sp, tp = src.polarity, tgt.polarity
    return PMorphism(
        src, tgt,
        {(w, u) for w in range(sp.nw) for u in range(tp.nu) if rng.random() < 0.5},
        {(u, w) for u in range(sp.nu) for w in range(tp.nw) if rng.random() < 0.5},
    )


# The family/order-type versions of the code that now reads sorts, kept as
# they were before the sorts took over, as oracles for the sort-keyed code.


def _names_shown(mask, names):
    return "{" + ", ".join(names[i] for i in bits(mask)) + "}"


def _swapped(rel, i):
    """rel with coordinates 0 and i exchanged, as a relation of its own."""
    order = list(range(rel.arity + 1))
    order[0], order[i] = order[i], order[0]
    return Relation(
        tuple(rel.sorts[j] for j in order),
        tuple(rel.sizes[j] for j in order),
        {tuple(t[j] for j in order) for t in rel.tuples},
    )


def compatibility_by_swaps(frame):
    """check_compatibility: 0-sections, then i-sections of swapped copies."""
    pol = frame.polarity

    def names(sorts, tup):
        return tuple(pol.names(s)[v] for v, s in zip(tup, sorts))

    def failure(conn, section, points, mask, sort):
        return CompatibilityReport(
            False, conn.name, section, points,
            tuple(pol.names(sort)[i] for i in bits(mask)),
            tuple(pol.names(sort)[i] for i in bits(pol.closure(mask, sort))),
        )

    for conn in frame.signature.connectives:
        rel = frame.relations[conn.name]
        for tup in product(*(range(pol.size(s)) for s in rel.sorts[1:])):
            mask = section_zero(rel, tuple(1 << v for v in tup))
            if not pol.stable(mask, rel.sorts[0]):
                return failure(conn, "0-section", names(rel.sorts[1:], tup), mask, rel.sorts[0])
        for i in range(1, rel.arity + 1):
            swapped = _swapped(rel, i)
            rest_sorts = rel.sorts[1:i] + rel.sorts[i + 1 :]
            for head in range(pol.size(rel.sorts[0])):
                for tup in product(*(range(pol.size(s)) for s in rest_sorts)):
                    args = tuple(1 << v for v in tup)
                    args = args[: i - 1] + (1 << head,) + args[i - 1 :]
                    mask = section_zero(swapped, args)
                    if not pol.stable(mask, rel.sorts[i]):
                        points = names(rel.sorts[:1], (head,)) + names(rest_sorts, tup)
                        return failure(conn, f"{i}-section", points, mask, rel.sorts[i])
    return CompatibilityReport(True)


def complex_algebra_ops_by_family(frame, concepts):
    """The operation tables of the complex algebra, by family and order type."""
    ext_index = {c.extent: i for i, c in enumerate(concepts)}
    int_index = {c.intent: i for i, c in enumerate(concepts)}
    ops = {}
    for conn in frame.signature.connectives:
        rel = frame.relations[conn.name]
        table = {}
        for tup in product(range(len(concepts)), repeat=conn.arity):
            if conn.family == "G":
                args = tuple(
                    concepts[t].intent if e == "1" else concepts[t].extent
                    for t, e in zip(tup, conn.order_type)
                )
                idx = ext_index.get(section_zero(rel, args))
            else:
                args = tuple(
                    concepts[t].extent if e == "1" else concepts[t].intent
                    for t, e in zip(tup, conn.order_type)
                )
                idx = int_index.get(section_zero(rel, args))
            if idx is None:
                raise IncompatibleFrameError(
                    f"operation {conn.name!r} leaves the concept lattice; "
                    "the frame is not compatible"
                )
            table[tup] = idx
        ops[conn.name] = table
    return ops


def section_i(rel, i, head, rest):
    """The i-section by a scan of the relation's tuples: the points at
    coordinate i related to every tuple in the product of head (the mask at
    coordinate 0) and rest (the masks at the other coordinates in order,
    skipping i).  With an empty product this is the full sort of coordinate
    i.  The oracle of the row index reads for head coordinates i >= 1."""
    if not 1 <= i <= rel.arity:
        raise SortError(f"no coordinate {i} in a relation of arity {rel.arity}")
    others = list(product(*(list(bits(m)) for m in (head,) + rest)))
    return mask_of(
        c for c in range(rel.sizes[i]) if all(t[:i] + (c,) + t[i:] in rel.tuples for t in others)
    )


def concept_of_w(polarity, w):
    """The concept generated by a single W point."""
    ext = polarity.down(polarity.rows[w])
    return Concept(ext, polarity.up(ext))


def concept_of_u(polarity, u):
    """The concept generated by a single U point."""
    ext = polarity.cols[u]
    return Concept(ext, polarity.up(ext))


def complete_homomorphism_failure(mapping, dom, cod):
    """None when mapping preserves bounds, meets, joins and all operations,
    else the first failure; the oracle for dual_hom's maps.

    On finite lattices preserving binary meets, joins and both bounds is
    the same as complete preservation.
    """
    mapping = tuple(mapping)
    if len(mapping) != dom.size or not all(0 <= v < cod.size for v in mapping):
        return "mapping is not a function into the codomain"
    if dom.signature != cod.signature:
        return "signature mismatch"
    if mapping[dom.bot] != cod.bot:
        return "bottom is not preserved"
    if mapping[dom.top] != cod.top:
        return "top is not preserved"
    for a in range(dom.size):
        for b in range(a + 1, dom.size):
            if mapping[dom.meet[a][b]] != cod.meet[mapping[a]][mapping[b]]:
                return f"meet of {dom.names[a]!r} and {dom.names[b]!r} not preserved"
            if mapping[dom.join[a][b]] != cod.join[mapping[a]][mapping[b]]:
                return f"join of {dom.names[a]!r} and {dom.names[b]!r} not preserved"
    for conn in dom.signature.connectives:
        for args, val in dom.ops[conn.name].items():
            if mapping[val] != cod.ops[conn.name][tuple(mapping[a] for a in args)]:
                return f"{conn.name!r} at {tuple(dom.names[a] for a in args)} not preserved"
    return None


def pmorphism_report_by_family(pm):
    """check_pmorphism with the relation conditions split by family."""
    sp, tp = pm.source.polarity, pm.target.polarity
    for u in range(tp.nu):
        mask = pm.S.down(1 << u)
        if not sp.stable_w(mask):
            return PMorphismReport(
                False, "p2",
                f"S-0-section at {tp.u_names[u]} = {_names_shown(mask, sp.w_names)} "
                "is not stable in the source",
            )
    for w in range(sp.nw):
        mask = pm.S.up(1 << w)
        if not tp.stable_u(mask):
            return PMorphismReport(
                False, "p2",
                f"S-1-section at {sp.w_names[w]} = {_names_shown(mask, tp.u_names)} "
                "is not stable in the target",
            )
    for u in range(sp.nu):
        mask = pm.T.up(1 << u)
        if not tp.stable_w(mask):
            return PMorphismReport(
                False, "p3",
                f"T-1-section at {sp.u_names[u]} = {_names_shown(mask, tp.w_names)} "
                "is not stable in the target",
            )
    for w in range(tp.nw):
        lhs = sp.down(pm.T.down(1 << w))
        rhs = pm.S.down(tp.up(1 << w))
        if lhs & ~rhs:
            return PMorphismReport(
                False, "p4",
                f"at {tp.w_names[w]}: the T-0-section closed down = "
                f"{_names_shown(lhs, sp.w_names)} is not contained in "
                f"{_names_shown(rhs, sp.w_names)}",
            )
    for c in enumerate_concepts(tp):
        lhs = sp.down(pm.T.down(c.extent))
        rhs = pm.S.down(c.intent)
        if lhs != rhs:
            return PMorphismReport(
                False, "duality diagnostic",
                f"at concept {c.show(tp)}: (T-0-section of the extent) closed down "
                f"= {_names_shown(lhs, sp.w_names)} differs from the S-0-section of the "
                f"intent {_names_shown(rhs, sp.w_names)}",
            )
    for w in range(sp.nw):
        lhs = pm.T.down(tp.down(pm.S.up(1 << w)))
        rhs = sp.rows[w]
        if lhs & ~rhs:
            return PMorphismReport(
                False, "p5",
                f"at {sp.w_names[w]}: T-0-section of the closed S-1-section "
                f"= {_names_shown(lhs, sp.u_names)} exceeds the up-set "
                f"{_names_shown(rhs, sp.u_names)}",
            )
    for conn in pm.source.signature.connectives:
        src_rel = pm.source.relations[conn.name]
        tgt_rel = pm.target.relations[conn.name]
        for tup in product(*(range(tp.size(s)) for s in tgt_rel.sorts[1:])):
            section = section_zero(tgt_rel, tuple(1 << v for v in tup))
            args = []
            if conn.family == "F":
                lhs = pm.T.down(tp.down(section))
                for v, e in zip(tup, conn.order_type):
                    if e == "1":
                        args.append(sp.down(pm.T.down(1 << v)))
                    else:
                        args.append(sp.up(pm.S.down(1 << v)))
                cond, side_names = "p6", sp.u_names
            else:
                lhs = pm.S.down(tp.up(section))
                for v, e in zip(tup, conn.order_type):
                    if e == "1":
                        args.append(sp.up(pm.S.down(1 << v)))
                    else:
                        args.append(sp.down(pm.T.down(1 << v)))
                cond, side_names = "p7", sp.w_names
            rhs = section_zero(src_rel, tuple(args))
            if lhs != rhs:
                pts = tuple(tp.names(s)[v] for v, s in zip(tup, tgt_rel.sorts[1:]))
                return PMorphismReport(
                    False, cond,
                    f"connective {conn.name!r} at ({', '.join(pts)}): "
                    f"{_names_shown(lhs, side_names)} != {_names_shown(rhs, side_names)}",
                )
    return PMorphismReport(True, surjective=is_surjective_by_scan(pm), injective=is_injective_by_scan(pm))


def filter_ideal_frame_by_family(alg):
    """filter_ideal_frame (no normality check), filters and ideals by family."""
    fs = [frozenset(bits(alg.above[a])) for a in range(alg.size)]
    is_ = [frozenset(bits(alg.below[a])) for a in range(alg.size)]
    pol = Polarity(
        [f"F({alg.names[a]})" for a in range(alg.size)],
        [f"I({alg.names[a]})" for a in range(alg.size)],
        [(i, j) for i in range(alg.size) for j in range(alg.size) if fs[i] & is_[j]],
    )
    relations = {}
    for conn in alg.signature.connectives:
        sorts = connective_sorts(conn)
        table = alg.ops[conn.name]
        if conn.family == "F":
            coord_sets = [(fs if e == "1" else is_) for e in conn.order_type]
            head_sets = is_
        else:
            coord_sets = [(is_ if e == "1" else fs) for e in conn.order_type]
            head_sets = fs
        tuples = set()
        for head in range(alg.size):
            for coords in product(range(alg.size), repeat=conn.arity):
                members = [sorted(coord_sets[i][c]) for i, c in enumerate(coords)]
                if any(table[tup] in head_sets[head] for tup in product(*members)):
                    tuples.add((head,) + coords)
        relations[conn.name] = Relation(sorts, tuple(pol.size(s) for s in sorts), tuples)
    return Frame(pol, alg.signature, relations)


def _st_by_family(phi, sig, sort, var, gen):
    """The standard translation with one clause per family and sort."""

    def st(psi, s, v):
        return _st_by_family(psi, sig, s, v, gen)

    def foralls(vs, body):
        for v in reversed(vs):
            body = Forall(v, body)
        return body

    def relation_clause(conn):
        fresh = [gen.fresh(s) for s in connective_sorts(conn)[1:]]
        parts = [st(a, v.sort, v) for a, v in zip(phi.args, fresh)]
        atom = RAtom(phi.name, (var,) + tuple(fresh))
        if not parts:
            return foralls(fresh, atom)
        ante = parts[0]
        for p in parts[1:]:
            ante = FAnd(ante, p)
        return foralls(fresh, FImp(ante, atom))

    def via_w():
        x = gen.fresh("W")
        return Forall(x, FImp(st(phi, "W", x), NAtom(x, var)))

    def via_u():
        y = gen.fresh("U")
        return Forall(y, FImp(st(phi, "U", y), NAtom(var, y)))

    if isinstance(phi, Prop):
        return PredAtom("ext" if sort == "W" else "int", phi.name, var)
    if isinstance(phi, Top):
        if sort == "W":
            return Eq(var, var)
        x = gen.fresh("W")
        return Forall(x, NAtom(x, var))
    if isinstance(phi, Bot):
        if sort == "U":
            return Eq(var, var)
        y = gen.fresh("U")
        return Forall(y, NAtom(var, y))
    if isinstance(phi, And):
        return FAnd(st(phi.left, "W", var), st(phi.right, "W", var)) if sort == "W" else via_w()
    if isinstance(phi, Or):
        return FAnd(st(phi.left, "U", var), st(phi.right, "U", var)) if sort == "U" else via_u()
    conn = sig.get(phi.name)
    if conn.family == "G":
        return relation_clause(conn) if sort == "W" else via_w()
    return relation_clause(conn) if sort == "U" else via_u()


def translate_sequent_by_family(sequent, sig, form):
    """translate_sequent through _st_by_family."""
    gen = VarGen()
    x, y = Var("W", "x"), Var("U", "y")
    if form == "impl-x":
        lhs = _st_by_family(sequent.lhs, sig, "W", x, gen)
        return Forall(x, FImp(lhs, _st_by_family(sequent.rhs, sig, "W", x, gen)))
    if form == "impl-y":
        rhs = _st_by_family(sequent.rhs, sig, "U", y, gen)
        return Forall(y, FImp(rhs, _st_by_family(sequent.lhs, sig, "U", y, gen)))
    lhs = _st_by_family(sequent.lhs, sig, "W", x, gen)
    body = FImp(FAnd(lhs, _st_by_family(sequent.rhs, sig, "U", y, gen)), NAtom(x, y))
    return Forall(x, Forall(y, body))


# Injectivity, surjectivity and falsification as they were before one
# p-morphism check answered them from the target's S-images: full scans of
# both concept lists, and a search that judges every draw through falsify.


def is_surjective_by_scan(pm, cap=None):
    """Distinct target concepts have distinct S-section extents."""
    seen = set()
    for c in enumerate_concepts(pm.target.polarity, cap):
        ext = pm.S.down(c.intent)
        if ext in seen:
            return False
        seen.add(ext)
    return True


def is_injective_by_scan(pm, cap=None):
    """Every source concept extent is an S-section of some target concept."""
    images = {pm.S.down(c.intent) for c in enumerate_concepts(pm.target.polarity, cap)}
    return all(
        c.extent in images for c in enumerate_concepts(pm.source.polarity, cap)
    )


def falsify_by_branches(condition, construction, frames, morphism=None, cap=None):
    """falsify with one branch per construction and its own p-morphism checks."""
    details = []
    if construction == "coproduct":
        for k, fr in enumerate(frames):
            holds, witness = check_condition(condition, fr)
            if not holds:
                details.append(f"component {k + 1} fails the condition: {witness}")
                return FalsifyReport(False, condition, construction, details)
            details.append(f"component {k + 1} satisfies the condition")
        cop = coproduct(frames)
        holds, witness = check_condition(condition, cop)
        if holds:
            details.append("the coproduct also satisfies the condition")
            return FalsifyReport(False, condition, construction, details)
        details.append(f"the coproduct fails it: {witness}")
        return FalsifyReport(True, condition, construction, details)

    if construction in ("pmorphic-image", "generated-subframe"):
        if morphism is None:
            raise FormatError(f"{construction} needs a morphism witness")
        report = pmorphism_report_by_family(morphism)
        if not report.passed:
            raise InvalidPMorphismError(report.message)
        if construction == "pmorphic-image":
            if not is_surjective_by_scan(morphism, cap):
                details.append("the p-morphism is not surjective")
                return FalsifyReport(False, condition, construction, details)
            keeper, loser = morphism.source, morphism.target
            details.append("verified surjective p-morphism")
            roles = ("source", "image")
        else:
            if not is_injective_by_scan(morphism, cap):
                details.append("the p-morphism is not injective")
                return FalsifyReport(False, condition, construction, details)
            keeper, loser = morphism.target, morphism.source
            details.append("verified injective p-morphism; the source is a generated subframe")
            roles = ("ambient frame", "subframe")
        holds, witness = check_condition(condition, keeper)
        if not holds:
            details.append(f"the {roles[0]} fails the condition: {witness}")
            return FalsifyReport(False, condition, construction, details)
        details.append(f"the {roles[0]} satisfies the condition")
        holds, witness = check_condition(condition, loser)
        if holds:
            details.append(f"the {roles[1]} also satisfies the condition")
            return FalsifyReport(False, condition, construction, details)
        details.append(f"the {roles[1]} fails it: {witness}")
        return FalsifyReport(True, condition, construction, details)

    if construction == "filter-ideal":
        (fr,) = frames
        ext = filter_ideal_extension(fr, cap)
        holds, witness = check_condition(condition, ext)
        if not holds:
            details.append(f"the filter-ideal extension fails the condition: {witness}")
            return FalsifyReport(False, condition, construction, details)
        details.append("the filter-ideal extension satisfies the condition")
        holds, witness = check_condition(condition, fr)
        if holds:
            details.append("the frame also satisfies the condition")
            return FalsifyReport(False, condition, construction, details)
        details.append(f"the frame fails it: {witness}")
        return FalsifyReport(True, condition, construction, details)

    raise FormatError(
        f"unknown construction {construction!r}; choose from {CONSTRUCTIONS}"
    )


def box_frames_by_brute_force(max_w, max_u):
    """box_frames as (key, frame) pairs: per size, sizes sorted by
    (max(nw, nu), nw, nu), every (N, R) pair of bit keys in order, built by
    names and kept when check_compatibility passes."""
    sizes = sorted(product(range(1, max_w + 1), range(1, max_u + 1)), key=lambda s: (max(s), s))
    sorts = connective_sorts(SIG_BOX.connectives[0])
    for nw, nu in sizes:
        cells = list(product(range(nw), range(nu)))  # cell (w, u) is bit w * nu + u
        w_names, u_names = [f"w{i}" for i in range(nw)], [f"u{i}" for i in range(nu)]
        for n in range(1 << nw * nu):
            pol = Polarity(w_names, u_names, [c for i, c in enumerate(cells) if n >> i & 1])
            for r in range(1 << nw * nu):
                rel = Relation(sorts, (nw, nu), [c for i, c in enumerate(cells) if r >> i & 1])
                fr = Frame(pol, SIG_BOX, {"box": rel})
                if check_compatibility(fr).passed:
                    yield (nw, nu, n, r), fr


def walked_candidates(condition, construction, max_size):
    """The walk's candidates from the brute-force frames: each frame under
    filter-ideal and pmorphic-image; under coproduct each new frame that
    satisfies the condition with itself, then with each earlier one; under
    generated-subframe each new frame with itself, then with each earlier
    one in both orders."""
    earlier = []
    for _, fr in box_frames_by_brute_force(max_size, max_size):
        if construction in ("filter-ideal", "pmorphic-image"):
            yield [fr]
        elif construction == "generated-subframe":
            yield [fr, fr]
            for other in earlier:
                yield from ([other, fr], [fr, other])
            earlier.append(fr)
        elif check_condition(condition, fr)[0]:
            yield [fr, fr]
            yield from ([other, fr] for other in earlier)
            earlier.append(fr)


def search_falsification_by_branches(condition, construction, max_size=3, tries=200, cap=None):
    """search_falsification through falsify_by_branches: a walk of the
    brute-force frames, a p-morphism candidate's morphism the dual of its
    algebra map."""
    judged = 0
    for frames in walked_candidates(condition, construction, max_size):
        if judged == tries:
            return SearchMiss(judged, False, max_size)
        judged += 1
        morphism = None
        if construction == "pmorphic-image":
            morphism, frames = diagonal_surjection_by_duality(frames[0], cap)[0], []
        elif construction == "generated-subframe":
            morphism, frames = component_embedding_by_duality(*frames, cap=cap)[0], []
        report = falsify_by_branches(condition, construction, frames, morphism=morphism, cap=cap)
        if report.falsified:
            return report
    return SearchMiss(judged, True, max_size)
