"""Finite algebras, complex algebras, normality, and homomorphisms."""

import gc
import random
import weakref
from itertools import product

import pytest

from lekit import (
    FiniteAlgebra,
    FormatError,
    Frame,
    IncompatibleFrameError,
    NotALatticeError,
    Polarity,
    algebra_from_dict,
    algebra_validates,
    build_complex_algebra,
    check_compatibility,
    coproduct,
    enumerate_concepts,
    filter_ideal_frame,
    find_isomorphism,
    parse_sequent,
    product_algebra,
    verify_normality,
)
import lekit.algebra as algebra_module
import lekit.frame as frame_module
from lekit.algebra import ComplexAlgebra
from lekit.frame import Relation, connective_sorts
from lekit.polarity import Concept
from lekit.sampling import (
    SIG_BOX,
    box_frame,
    stabilize_box_relation,
)
from lekit.syntax import EMPTY_SIGNATURE, Connective, Signature

from conftest import (
    SIG_MIX,
    all_box_frames_2x2,
    boolean_frame,
    build_table,
    check_order,
    complete_homomorphism_failure,
    complex_algebra_ops_by_family,
    concept_leq_by_extents,
    concept_names,
    cones_of,
    eager_build,
    eager_complex_algebra,
    find_isomorphism_by_leq,
    le,
    leq_closure_fixpoint,
    mask_of,
    normality_by_lookup,
    product_leq_by_pairs,
    product_names,
    random_box_frame,
    random_frame,
    random_polarity,
    residuated,
)


def two_chain():
    return algebra_from_dict(
        {
            "elements": ["0", "1"],
            "leq": [["0", "1"]],
            "signature": {"connectives": []},
            "ops": {},
        }
    )


def diamond():
    # four-element lattice: bot < a, b < top with a, b incomparable
    return algebra_from_dict(
        {
            "elements": ["bot", "a", "b", "top"],
            "leq": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
            "signature": {"connectives": []},
            "ops": {},
        }
    )


def test_lattice_structure():
    alg = diamond()
    bot, a, b, top = range(4)
    assert alg.bot == bot and alg.top == top
    assert alg.meet[a][b] == bot and alg.join[a][b] == top
    assert alg.meet[a][top] == a and alg.join[a][bot] == a
    assert alg.meet[a][a] == a


def test_non_lattice_rejected():
    # two maximal elements: no top, joins undefined
    with pytest.raises(NotALatticeError):
        algebra_from_dict(
            {
                "elements": ["x", "y"],
                "leq": [],
                "signature": {"connectives": []},
                "ops": {},
            }
        )


def test_leq_closure_from_cover_pairs():
    alg = algebra_from_dict(
        {
            "elements": ["0", "m", "1"],
            "leq": [["0", "m"], ["m", "1"]],
            "signature": {"connectives": []},
            "ops": {},
        }
    )
    assert alg.leq[0][2]  # transitivity filled in
    assert alg.leq[1][1]  # reflexivity filled in


def test_complex_algebra_of_swap_frame(frame_f1):
    alg = build_complex_algebra(frame_f1)
    assert alg.size == 4
    box = alg.ops["box"]
    # the atoms ({a1},{x1}) and ({b1},{y1}) are swapped by box
    names = alg.names
    idx = {n: i for i, n in enumerate(names)}
    a1 = next(i for i, n in enumerate(names) if "a1" in n and "b1" not in n)
    b1 = next(i for i, n in enumerate(names) if "b1" in n and "a1" not in n)
    assert box[(a1,)] == b1
    assert box[(b1,)] == a1
    assert box[(alg.top,)] == alg.top
    assert box[(alg.bot,)] == alg.bot


def test_complex_algebra_is_normal_on_random_frames():
    rng = random.Random(3)
    for _ in range(25):
        fr = random_box_frame(rng)
        alg = build_complex_algebra(fr)
        report = verify_normality(alg)
        assert report.passed, report.message


def test_complex_algebra_lattice_matches_concept_lattice(frame_f1):
    alg = build_complex_algebra(frame_f1)
    concepts = alg.concepts
    for i, ci in enumerate(concepts):
        for j, cj in enumerate(concepts):
            m = alg.meet[i][j]
            assert concepts[m].extent == ci.extent & cj.extent
            k = alg.join[i][j]
            assert concepts[k].intent == ci.intent & cj.intent


def test_normality_failure_detected():
    # a unary monotone G-connective must send top to top
    sig = Signature((Connective("box", "G", 1, ("1",)),))
    alg = FiniteAlgebra(
        ["0", "1"],
        [[True, True], [False, True]],
        sig,
        {"box": {(0,): 0, (1,): 0}},
    )
    report = verify_normality(alg)
    assert not report.passed
    assert "box" in report.message


def test_homomorphism_checker():
    dom = two_chain()
    cod = diamond()
    assert complete_homomorphism_failure([0, 3], dom, cod) is None
    # does not send bot to bot
    assert complete_homomorphism_failure([1, 3], dom, cod) == "bottom is not preserved"
    # splitting the incomparable pair across the chain is a homomorphism
    assert complete_homomorphism_failure([0, 1, 0, 1], cod, dom) is None
    # collapsing both to 1 breaks the meet: a /\ b = bot but 1 /\ 1 = 1
    bad = complete_homomorphism_failure([0, 1, 1, 1], cod, dom)
    assert bad is not None and bad.startswith("meet of ")


def test_op_preservation_checked():
    sig = Signature((Connective("box", "G", 1, ("1",)),))
    leq2 = [[True, True], [False, True]]
    dom = FiniteAlgebra(["0", "1"], leq2, sig, {"box": {(0,): 0, (1,): 1}})
    cod = FiniteAlgebra(["0", "1"], leq2, sig, {"box": {(0,): 0, (1,): 1}})
    assert complete_homomorphism_failure([0, 1], dom, cod) is None
    cod2 = FiniteAlgebra(["0", "1"], leq2, sig, {"box": {(0,): 1, (1,): 1}})
    assert complete_homomorphism_failure([0, 1], dom, cod2) == "'box' at ('0',) not preserved"


def test_find_isomorphism_random_frames():
    rng = random.Random(9)
    for _ in range(15):
        fr = random_box_frame(rng)
        alg = build_complex_algebra(fr)
        iso = find_isomorphism(alg, alg)
        assert iso is not None
        assert complete_homomorphism_failure(iso, alg, alg) is None


def test_find_isomorphism_maps_a_long_chain_to_itself():
    # one backtracking level per element: deeper than the recursion limit
    n = 1200
    full = (1 << n) - 1
    above = [full ^ ((1 << i) - 1) for i in range(n)]
    below = [(1 << (i + 1)) - 1 for i in range(n)]
    ops = {"box": tuple(range(n))}
    chain = FiniteAlgebra.from_cones(list(map(str, range(n))), above, below, SIG_BOX, ops, lattice=True)
    assert find_isomorphism(chain, chain) == list(range(n))


def test_find_isomorphism_distinguishes():
    a = two_chain()
    b = diamond()
    assert find_isomorphism(a, b) is None


def test_complex_algebras_of_all_2x2_frames_are_normal():
    for fr in all_box_frames_2x2():
        assert verify_normality(build_complex_algebra(fr)).passed


def _random_leq(rng, n):
    """A random partial order on n points, sometimes bounded, sometimes damaged."""
    perm = list(range(n))
    rng.shuffle(perm)
    density = rng.choice((0.2, 0.4, 0.7))
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                leq[perm[a]][perm[b]] = True
    if n and rng.random() < 0.5:
        for x in range(n):
            leq[perm[0]][x] = leq[x][perm[-1]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    damage = rng.random()
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and leq[i][j]]
    if damage < 0.1:
        i = rng.randrange(n)
        leq[i][i] = False
    elif damage < 0.2 and pairs:
        i, j = rng.choice(pairs)
        leq[j][i] = True
    elif damage < 0.3 and pairs:
        i, j = rng.choice(pairs)
        leq[i][j] = False
    return leq


def _lattice_by_scan(names, leq):
    """(meet, join) from the triple-scan order check and the candidate scan."""
    check_order(leq)
    n = len(leq)
    below = [mask_of(j for j in range(n) if leq[j][i]) for i in range(n)]
    above = [mask_of(j for j in range(n) if leq[i][j]) for i in range(n)]
    return build_table(names, below, "meet"), build_table(names, above, "join")


def _outcome(fn):
    try:
        return fn()
    except NotALatticeError as exc:
        return str(exc)


def test_order_check_and_tables_match_scans_on_random_posets():
    rng = random.Random(17)
    messages = set()
    for _ in range(600):
        n = rng.randint(1, 10)
        leq = _random_leq(rng, n)
        names = [f"e{i}" for i in range(n)]
        expected = _outcome(lambda: _lattice_by_scan(names, leq))
        got = _outcome(
            lambda: (lambda a: (a.meet, a.join))(
                FiniteAlgebra(names, leq, EMPTY_SIGNATURE, {})
            )
        )
        assert got == expected, leq
        if isinstance(got, str):
            messages.add(got.split(" of ")[0])
    # every kind of refusal occurs in the family
    assert {
        "leq is not reflexive",
        "leq is not antisymmetric",
        "leq is not transitive",
        "meet",
        "join",
    } <= messages


def test_complex_algebra_tables_match_scans():
    rng = random.Random(23)
    for _ in range(40):
        alg = build_complex_algebra(random_box_frame(rng, 6, 6))
        assert (alg.meet, alg.join) == _lattice_by_scan(alg.names, alg.leq)
        n = alg.size
        assert alg.below == tuple(
            mask_of(j for j in range(n) if alg.leq[j][i]) for i in range(n)
        )


def _normality_algebras():
    rng = random.Random(31)
    for _ in range(20):
        yield build_complex_algebra(random_box_frame(rng, 5, 5))
    for k in (2, 3, 4):
        for _ in range(6):
            conns = [
                Connective("f", "F", 2, tuple(rng.choice("1d") for _ in range(2))),
                Connective("g", "G", 2, tuple(rng.choice("1d") for _ in range(2))),
                Connective("h", rng.choice("FG"), 1, (rng.choice("1d"),)),
            ]
            frame = boolean_frame(rng, k, conns)
            yield build_complex_algebra(frame, check=False)


def test_normality_matches_lookup_loop_on_corrupted_tables():
    rng = random.Random(37)
    laws = set()
    for alg in _normality_algebras():
        assert verify_normality(alg) == normality_by_lookup(alg)
        assert verify_normality(alg).passed
        for _ in range(6):
            conn = rng.choice(alg.signature.connectives)
            ops = {name: dict(table) for name, table in alg.ops.items()}
            args = rng.choice(sorted(ops[conn.name]))
            ops[conn.name][args] = rng.randrange(alg.size)
            bad = FiniteAlgebra(alg.names, alg.leq, alg.signature, ops)
            report = verify_normality(bad)
            assert report == normality_by_lookup(bad)
            laws.add(report.law)
    # both the unit and the distribution laws fail somewhere in the family
    assert any(law and law.endswith(" unit") for law in laws)
    assert any(law and not law.endswith(" unit") for law in laws)


def _box_frame(rng, nw, nu, density):
    """A compatible box frame on exactly nw x nu points."""
    pol = random_polarity(rng, nw, nu, density)
    seed = [(w, u) for w in range(nw) for u in range(nu) if rng.random() < 0.3]
    rel = Relation(
        connective_sorts(SIG_BOX.connectives[0]),
        (nw, nu),
        stabilize_box_relation(pol, seed),
    )
    return Frame(pol, SIG_BOX, {"box": rel})


def _cone_frames():
    """Box frames up to 16 x 16, bare polarities of every shape and density,
    and filter-ideal frames with a binary F and a binary G connective."""
    rng = random.Random(41)
    for side, density in ((4, 0.5), (8, 0.6), (12, 0.7), (16, 0.7), (16, 0.5)):
        yield _box_frame(rng, side, side, density)
    shapes = ((0, 0), (0, 5), (5, 0), (3, 9), (9, 3), (7, 12), (12, 7), (10, 10))
    for nw, nu in shapes:
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            yield Frame(random_polarity(rng, nw, nu, density), EMPTY_SIGNATURE, {})
    conns = [Connective("f", "F", 2, ("1", "d")), Connective("g", "G", 2, ("d", "1"))]
    for k in (2, 3):
        alg = build_complex_algebra(boolean_frame(rng, k, conns), check=False)
        yield filter_ideal_frame(alg)


def test_complex_algebra_cones_match_extent_matrix():
    sizes = []
    for frame in _cone_frames():
        alg = build_complex_algebra(frame)
        leq = concept_leq_by_extents(alg.concepts)
        assert (alg.above, alg.below) == cones_of(leq)
        assert alg.leq == tuple(map(tuple, leq))
        sizes.append(alg.size)
    assert min(sizes) == 1 and max(sizes) > 500


def _oracle_frames(rng):
    """Seeded box frames up to 16 x 16, SIG_MIX boolean frames, filter-ideal
    frames of SIG_MIX algebras, and the 0 x 0 and 1 x 1 box frames."""
    for side, density in ((2, 0.5), (4, 0.5), (6, 0.6), (9, 0.7), (12, 0.7), (16, 0.7)):
        yield _box_frame(rng, side, side, density)
    for _ in range(6):
        yield random_box_frame(rng, 4, 4)
    for k in (1, 2, 3, 4):
        yield boolean_frame(rng, k, SIG_MIX.connectives)
    for k in (2, 3):
        yield filter_ideal_frame(build_complex_algebra(boolean_frame(rng, k, SIG_MIX.connectives)))
    yield box_frame((0, 0, 0, 0))
    for n, seed in ((0, 0), (1, 0), (0, 1), (1, 1)):  # N and the relation empty or full
        yield box_frame((1, 1, n, seed))


@pytest.mark.parametrize("first", ["above", "below", "concepts", "names"])
def test_complex_algebras_match_the_eager_oracle(first):
    # whichever field is read first, every field is the eager build's
    rng = random.Random(97)
    sizes, signatures = [], set()
    for frame in _oracle_frames(rng):
        alg = ComplexAlgebra(frame)
        eager = eager_complex_algebra(frame)
        getattr(alg, first)
        assert (alg.top, alg.bot) == (eager.top, eager.bot)
        assert (alg.above, alg.below) == (eager.above, eager.below)
        assert alg.concepts == eager.concepts
        assert all(type(c) is Concept for c in alg.concepts)
        assert alg.pairs == [tuple(c) for c in eager.concepts]
        assert alg.names == eager.names
        assert alg.ops == eager.ops
        assert [alg.index_of_extent(c.extent) for c in eager.concepts] == list(range(alg.size))
        sizes.append(alg.size)
        signatures.add(frame.signature)
    assert min(sizes) == 1 and max(sizes) > 500
    assert signatures == {SIG_BOX, SIG_MIX}


def test_a_complex_algebra_build_makes_no_cones_and_no_concepts(monkeypatch):
    transposed, made = [], []
    transpose, as_concepts = algebra_module.transpose, algebra_module.as_concepts
    monkeypatch.setattr(algebra_module, "transpose", lambda *a: transposed.append(a) or transpose(*a))
    monkeypatch.setattr(
        algebra_module, "as_concepts", lambda pairs: made.extend(pairs) or as_concepts(pairs)
    )
    rng = random.Random(101)
    frames = [_box_frame(rng, side, side, 0.7) for side in (4, 10, 16)]
    frames += [boolean_frame(rng, k, SIG_MIX.connectives) for k in (2, 3)]
    algebras = [build_complex_algebra(frame) for frame in frames]
    assert not transposed and not made
    assert not {"above", "below", "concepts", "names"} & set(vars(algebras[-1]))
    # the spies do see the cones and the Concepts once something reads them
    algebras[0].above
    algebras[0].concepts
    assert len(transposed) == 1 and len(made) == algebras[0].size


def test_box_normality_leaves_the_down_cones_uncomputed():
    # a box column is G and monotone: it gathers and compares up-cones only
    rng = random.Random(103)
    boxes = [build_complex_algebra(_box_frame(rng, side, side, 0.7)) for side in (3, 8, 16)]
    boxes += [build_complex_algebra(random_box_frame(rng, 4, 4)) for _ in range(6)]
    for alg in boxes:
        assert verify_normality(alg).passed
        assert "above" in vars(alg)
        assert not {"below", "concepts", "names"} & set(vars(alg))
    # an F column reads the down-cones
    mixed = build_complex_algebra(boolean_frame(rng, 2, SIG_MIX.connectives))
    assert verify_normality(mixed).passed
    assert {"above", "below"} <= set(vars(mixed))


def test_only_tables_given_by_the_user_are_copied():
    n = 3
    above = [(1 << n) - (1 << i) for i in range(n)]
    below = [(1 << (i + 1)) - 1 for i in range(n)]
    leq = [[bool(up >> j & 1) for j in range(n)] for up in above]
    names = ["0", "1", "2"]
    # a user's dict tables are read into flat tuples: changing the dicts
    # after the build changes nothing in the algebra
    for build in (
        lambda ops: FiniteAlgebra(names, leq, SIG_BOX, ops),
        lambda ops: FiniteAlgebra.from_cones(names, above, below, SIG_BOX, ops),
    ):
        ops = {"box": {(x,): x for x in range(n)}}
        alg = build(ops)
        ops["box"][(0,)] = 2
        assert alg.tables == {"box": (0, 1, 2)}
        assert alg.ops == {"box": {(x,): x for x in range(n)}}
    # a lattice by construction keeps the flat tuple it was given
    ops = {"box": (0, 1, 2)}
    alg = FiniteAlgebra.from_cones(names, above, below, SIG_BOX, ops, lattice=True)
    assert alg.tables["box"] is ops["box"]
    assert alg.ops == {"box": {(x,): x for x in range(n)}}


def _empty_signature_algebras(rng):
    yield two_chain()
    yield diamond()
    for nw, nu in ((2, 3), (3, 2), (4, 4)):
        frame = Frame(random_polarity(rng, nw, nu), EMPTY_SIGNATURE, {})
        yield build_complex_algebra(frame)


def test_product_cones_match_pairwise_order():
    rng = random.Random(43)
    families = [
        list(_empty_signature_algebras(rng)),
        [build_complex_algebra(random_box_frame(rng, 4, 4)) for _ in range(5)],
    ]
    for algebras in families:
        for a in algebras:
            for b in algebras:
                prod = product_algebra(a, b)
                leq = product_leq_by_pairs(a, b)
                assert (prod.above, prod.below) == cones_of(leq)
                assert prod.leq == tuple(map(tuple, leq))


def test_leq_closure_matches_fixpoint_on_random_pairs():
    rng = random.Random(47)
    messages = set()
    for _ in range(400):
        n = rng.randint(1, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        density = rng.choice((0.2, 0.4, 0.7))
        pairs = [
            (perm[a], perm[b])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < density
        ]
        if rng.random() < 0.6:  # bottom and top
            pairs += [(perm[0], x) for x in range(n)] + [(x, perm[-1]) for x in range(n)]
        if n > 1 and rng.random() < 0.25:  # a cycle
            a, b = sorted(rng.sample(range(n), 2))
            pairs += [(perm[a], perm[b]), (perm[b], perm[a])]
        rng.shuffle(pairs)
        names = [f"e{i}" for i in range(n)]
        leq = leq_closure_fixpoint(n, pairs)
        data = {
            "elements": names,
            "leq": [[names[i], names[j]] for i, j in pairs],
            "signature": {"connectives": []},
        }
        expected = _outcome(lambda: _lattice_by_scan(names, leq))
        got = _outcome(lambda: algebra_from_dict(data))
        if isinstance(got, str):
            assert got == expected, pairs
            messages.add(got.split(" of ")[0])
        else:
            assert (got.meet, got.join) == expected
            assert got.leq == tuple(map(tuple, leq))
    assert {"leq is not antisymmetric", "meet", "join"} <= messages


def test_find_isomorphism_matches_matrix_search_on_coproduct_law_pairs():
    rng = random.Random(53)
    found = set()
    for _ in range(12):
        f1 = random_box_frame(rng)
        f2 = random_box_frame(rng)
        a1, a2 = build_complex_algebra(f1), build_complex_algebra(f2)
        cp_alg = build_complex_algebra(coproduct([f1, f2]))
        law = find_isomorphism(cp_alg, product_algebra(a1, a2))
        assert law is not None
        assert law == find_isomorphism_by_leq(cp_alg, product_algebra(a1, a2))
        # the product the wrong way round is often not isomorphic
        other = product_algebra(a2, a2)
        got = find_isomorphism(cp_alg, other)
        assert got == find_isomorphism_by_leq(cp_alg, other)
        found.add(got is None)
    assert found == {True, False}


def _chain(order, box_rank):
    """The chain whose element order[r] has rank r from the bottom, built
    from its cones, with box sending the element of rank r to that of rank
    box_rank[r]."""
    n = len(order)
    rank = {x: r for r, x in enumerate(order)}
    above = [mask_of(order[rank[x]:]) for x in range(n)]
    below = [mask_of(order[: rank[x] + 1]) for x in range(n)]
    ops = {"box": {(x,): order[box_rank[rank[x]]] for x in range(n)}}
    return FiniteAlgebra.from_cones(list(map(str, range(n))), above, below, SIG_BOX, ops)


def test_find_isomorphism_matches_matrix_search_on_long_chains():
    rng = random.Random(59)
    n = 200
    a_order, b_order = rng.sample(range(n), n), rng.sample(range(n), n)
    down = [max(r - 1, 0) for r in range(n)]
    a = _chain(a_order, down)
    iso = find_isomorphism(a, _chain(b_order, down))
    assert iso == find_isomorphism_by_leq(a, _chain(b_order, down))
    assert iso == [b_order[a_order.index(x)] for x in range(n)]
    other = _chain(b_order, [max(r - 2, 0) for r in range(n)])
    assert find_isomorphism(a, other) is find_isomorphism_by_leq(a, other) is None


def test_le_and_to_dict_read_the_cones():
    alg = diamond()
    assert [[le(alg, i, j) for j in range(4)] for i in range(4)] == [
        list(row) for row in alg.leq
    ]
    again = algebra_from_dict(alg.to_dict())
    assert (again.above, again.below) == (alg.above, alg.below)


# one connective of each arity 0-3
SIG_ARITIES = Signature(
    (
        Connective("c", "F", 0, ()),
        Connective("box", "G", 1, ("1",)),
        Connective("f", "F", 2, ("1", "d")),
        Connective("t", "G", 3, ("d", "1", "1")),
    )
)


def _random_dict_tables(rng, n):
    """Random tables as a user gives them: dicts from argument tuples to
    values, their keys in no particular order."""
    ops = {}
    for conn in SIG_ARITIES.connectives:
        args = list(product(range(n), repeat=conn.arity))
        rng.shuffle(args)
        ops[conn.name] = {t: rng.randrange(n) for t in args}
    return ops


def _table_format_algebras(rng):
    """(alg, the dict tables it was given, or None) for user, from_cones,
    algebra_from_dict, complex and product algebras over SIG_ARITIES."""
    names = ["bot", "a", "b", "top"]
    leq = [[i == j or i == 0 or j == 3 for j in range(4)] for i in range(4)]
    above, below = cones_of(leq)
    ops = _random_dict_tables(rng, 4)
    yield FiniteAlgebra(names, leq, SIG_ARITIES, ops), ops
    ops = _random_dict_tables(rng, 4)
    yield FiniteAlgebra.from_cones(names, above, below, SIG_ARITIES, ops), ops
    data = FiniteAlgebra(names, leq, SIG_ARITIES, _random_dict_tables(rng, 4)).to_dict()
    for rows in data["ops"].values():
        rng.shuffle(rows)
    yield algebra_from_dict(data), None
    a = build_complex_algebra(boolean_frame(rng, 2, SIG_ARITIES.connectives), check=False)
    b = build_complex_algebra(boolean_frame(rng, 1, SIG_ARITIES.connectives), check=False)
    yield a, None
    yield b, None
    yield product_algebra(a, b), None
    yield product_algebra(b, a), None


def test_tables_are_flat_in_product_order():
    # tables[name] holds n**arity values, the last coordinate fastest; ops
    # is the same table keyed by argument tuples, and to_dict writes its
    # rows in sorted order and reads back to the same tables
    rng = random.Random(107)
    sizes = []
    for alg, given in _table_format_algebras(rng):
        n = alg.size
        sizes.append(n)
        assert alg.ops == {
            c.name: dict(zip(product(range(n), repeat=c.arity), alg.tables[c.name]))
            for c in alg.signature.connectives
        }
        if given is not None:
            assert alg.ops == given
        data = alg.to_dict()
        assert algebra_from_dict(data).tables == alg.tables
        for c in alg.signature.connectives:
            assert type(alg.tables[c.name]) is tuple and len(alg.tables[c.name]) == n**c.arity
            assert data["ops"][c.name] == [
                [alg.names[x] for x in args] + [alg.names[v]]
                for args, v in sorted(alg.ops[c.name].items())
            ]
    assert sizes == [4, 4, 4, 4, 2, 8, 8]


def _binary_connectives(rng):
    return [
        Connective("f", "F", 2, tuple(rng.choice("1d") for _ in range(2))),
        Connective("g", "G", 2, tuple(rng.choice("1d") for _ in range(2))),
    ]


def _residuation_algebras(rng):
    """Complex algebras of box frames up to 16 x 16, boolean-frame algebras
    with binary F and G of random order types, and products of both kinds."""
    for side, density in ((3, 0.5), (5, 0.5), (8, 0.6), (12, 0.7), (16, 0.7)):
        yield build_complex_algebra(_box_frame(rng, side, side, density))
    for k in (1, 2, 3, 4):
        for _ in range(3):
            frame = boolean_frame(rng, k, _binary_connectives(rng))
            yield build_complex_algebra(frame, check=False)
    boxes = [build_complex_algebra(_box_frame(rng, side, side, 0.6)) for side in (3, 4, 4, 5)]
    for a, b in zip(boxes, boxes[1:]):
        yield product_algebra(a, b)
    for k, l in ((1, 2), (2, 2), (1, 3)):
        conns = _binary_connectives(rng)
        a = build_complex_algebra(boolean_frame(rng, k, conns), check=False)
        b = build_complex_algebra(boolean_frame(rng, l, conns), check=False)
        yield product_algebra(a, b)


def _damaged(rng, alg):
    """A copy of alg with one operation entry changed to another element."""
    conn = rng.choice([c for c in alg.signature.connectives if c.arity])
    ops = dict(alg.tables)
    table = list(ops[conn.name])
    if rng.random() < 0.3:  # an entry with a bound somewhere, where unit laws are read
        bounds = (alg.bot, alg.top)
        args = tuple(
            rng.choice(bounds) if rng.random() < 0.5 else rng.randrange(alg.size)
            for _ in range(conn.arity)
        )
    else:
        args = tuple(rng.randrange(alg.size) for _ in range(conn.arity))
    at = 0  # args' position in the flat table
    for x in args:
        at = at * alg.size + x
    table[at] = rng.choice([v for v in range(alg.size) if v != table[at]])
    ops[conn.name] = tuple(table)
    return FiniteAlgebra.from_cones(
        alg.names, alg.above, alg.below, alg.signature, ops, lattice=True
    )


def _shuffled(rng, alg):
    """alg's dict with each operation's rows shuffled, so that it lists no
    table's arguments in product order."""
    data = alg.to_dict()
    for rows in data["ops"].values():
        rng.shuffle(rows)
    return data


def test_residuation_matches_pair_lookup_on_normal_and_damaged_algebras():
    rng = random.Random(59)
    laws, damaged, sizes, kinds, shuffled = set(), 0, [], set(), 0
    for alg in _residuation_algebras(rng):
        sizes.append(alg.size)
        kinds |= {(c.family, e) for c in alg.signature.connectives for e in c.order_type}
        copies = 20 if alg.size <= 64 else 2
        cases = [alg] + [_damaged(rng, alg) for _ in range(copies)]
        damaged += copies
        for case in cases:
            expected = normality_by_lookup(case)
            assert residuated(case) == expected.passed
            assert verify_normality(case) == expected
            laws.add(expected.law)
        # the tables are read by argument tuple, whatever the rows' order
        for case in cases[:3] if alg.size <= 64 else ():
            data = _shuffled(rng, case)
            shuffled += data["ops"] != case.to_dict()["ops"]
            again = algebra_from_dict(data)
            assert again.tables == case.tables
            assert verify_normality(again) == verify_normality(case)
    assert max(sizes) > 500 and damaged >= 300 and shuffled >= 40
    assert kinds == {("F", "1"), ("F", "d"), ("G", "1"), ("G", "d")}
    # unit and distribution laws both fail in the family
    assert any(law and law.endswith(" unit") for law in laws)
    assert any(law and not law.endswith(" unit") for law in laws)


def test_lattices_by_construction_fill_their_tables_only_when_read():
    rng = random.Random(61)
    boxes = [build_complex_algebra(_box_frame(rng, side, side, 0.6)) for side in (4, 8, 12)]
    conns = _binary_connectives(rng)
    booleans = [
        build_complex_algebra(boolean_frame(rng, k, conns), check=False) for k in (2, 3)
    ]
    products = [product_algebra(boxes[0], boxes[1]), product_algebra(*booleans)]
    for alg in boxes + booleans + products:
        assert verify_normality(alg).passed
        assert "meet" not in vars(alg) and "join" not in vars(alg)
        assert alg.meet == build_table(alg.names, alg.below, "meet")
        assert alg.join == build_table(alg.names, alg.above, "join")
    # an algebra given by its order fills both tables while it is built
    assert {"meet", "join"} <= set(vars(diamond()))
    assert {"meet", "join"} <= set(vars(algebra_from_dict(diamond().to_dict())))


def test_checks_leave_no_cycle_holding_a_complex_algebra():
    rng = random.Random(67)
    seq = parse_sequent("box (p /\\ q) |- box p \\/ q", SIG_BOX)
    checks = [
        lambda alg: algebra_validates(alg, seq),
        verify_normality,
        lambda alg: find_isomorphism(alg, alg),
    ]
    gc.collect()
    gc.disable()
    try:
        for check in checks:
            alg = build_complex_algebra(_box_frame(rng, 4, 4, 0.5))
            check(alg)
            ref = weakref.ref(alg)
            del alg
            assert ref() is None
    finally:
        gc.enable()


def _ops_match_family_branches(frame):
    """Compare the built tables with the per-tuple oracle; False when the
    oracle finds the frame leaves the concept lattice, after checking that
    the build refuses it with the same message."""
    try:
        expect = complex_algebra_ops_by_family(frame, enumerate_concepts(frame.polarity))
    except IncompatibleFrameError as err:
        with pytest.raises(IncompatibleFrameError) as got:
            build_complex_algebra(frame, check=False)
        assert str(got.value) == str(err)
        return False
    assert build_complex_algebra(frame, check=False).ops == expect
    return True


def _sparse_box_frames(rng):
    """Box frames, mostly not compatible, whose relation is empty, one pair
    or about 5 % of the pairs."""
    box = SIG_BOX.connectives[0]
    for side in (6, 10, 16):
        pol = random_polarity(rng, side, side, 0.7)
        pairs = [(w, u) for w in range(side) for u in range(side) if rng.random() < 0.05]
        for tuples in ((), [(rng.randrange(side), rng.randrange(side))], pairs):
            rel = Relation(connective_sorts(box), (side, side), tuples)
            yield Frame(pol, SIG_BOX, {"box": rel})


def test_complex_algebra_ops_match_family_branches():
    # boolean frames (all compatible, up to 16 concepts) and random frames,
    # most of which leave the concept lattice in some operation
    rng = random.Random(313)
    built = refused = 0
    for k in range(120):
        if k % 2:
            fr = boolean_frame(rng, 1 + k % 4, SIG_MIX.connectives)
        else:
            fr = random_frame(rng, SIG_MIX, 4)
        if _ops_match_family_branches(fr):
            built += 1
        else:
            refused += 1
    assert built >= 60 and refused
    # stabilized box frames of 6-16 points, dense like the benchmark's;
    # SIG_MIX boolean frames (binary, antitone and nullary connectives) and
    # the filter-ideal frames of 2^3 and 2^4; sparse box relations
    dense = [_box_frame(rng, side, side, 0.7) for side in (6, 8, 10, 12, 14, 16)]
    booleans = [boolean_frame(rng, k, SIG_MIX.connectives) for k in (3, 4, 3, 4)]
    fifs = [
        filter_ideal_frame(build_complex_algebra(boolean_frame(rng, k, SIG_MIX.connectives)))
        for k in (3, 4)
    ]
    for fr in dense + booleans + fifs:
        assert _ops_match_family_branches(fr)
    assert max(len(fr.relations["box"].tuples) for fr in dense) > 200
    assert [fr.polarity.nw for fr in fifs] == [8, 16]
    sparse = [_ops_match_family_branches(fr) for fr in _sparse_box_frames(rng)]
    assert any(sparse) and not all(sparse)


def test_complex_algebra_tables_make_no_per_tuple_sections(monkeypatch):
    # the tables fold the row index: no section_zero (or other _section_at)
    # call per argument tuple
    rng = random.Random(331)
    fif = filter_ideal_frame(build_complex_algebra(boolean_frame(rng, 4, SIG_MIX.connectives)))
    calls = []
    section_at = frame_module._section_at

    def counted(*args):
        calls.append(args)
        return section_at(*args)

    monkeypatch.setattr(frame_module, "_section_at", counted)
    alg = build_complex_algebra(fif)
    assert alg.size == 16 and not calls
    frame_module.section_zero(fif.relations["c"], ())
    assert len(calls) == 1  # the counter does see a section


def _incompatible_algebras(rng, sig, count):
    """Complex algebras, built with check=False, of random frames that fail
    the compatibility check but whose operations stay in the concept lattice."""
    found = []
    while len(found) < count:
        frame = random_frame(rng, sig, 3)
        if check_compatibility(frame).passed:
            continue
        try:
            found.append(build_complex_algebra(frame, check=False))
        except IncompatibleFrameError:
            pass
    return found


def _complex_algebras_by_construction(rng):
    """Seeded complex algebras of box, boolean and SIG_MIX frames, several of
    them built with check=False, some from frames that are not compatible."""
    algebras = [build_complex_algebra(random_box_frame(rng, 4, 4)) for _ in range(8)]
    algebras += [build_complex_algebra(_box_frame(rng, side, side, 0.7)) for side in (6, 9, 12)]
    for k in (1, 2, 3):
        for conns in (_binary_connectives(rng), SIG_MIX.connectives):
            algebras.append(build_complex_algebra(boolean_frame(rng, k, conns), check=False))
    algebras += _incompatible_algebras(rng, SIG_MIX, 4)
    algebras += _incompatible_algebras(rng, SIG_BOX, 6)
    return algebras


def _agrees_with_eager_build(alg, names, leq):
    """alg passes the eager build, and its order, tables, bounds and names
    are that build's, with leq as the order."""
    eager = eager_build(alg, names)
    assert alg.leq == eager.leq == tuple(map(tuple, leq))
    assert (alg.meet, alg.join) == (eager.meet, eager.join)
    assert (alg.top, alg.bot) == (eager.top, eager.bot)
    assert alg.names == eager.names == tuple(names)
    if alg.size <= 60:  # the triple scan is cubic
        check_order(leq)


def test_lattices_by_construction_match_the_eager_build():
    rng = random.Random(71)
    algebras = _complex_algebras_by_construction(rng)
    for alg in algebras:
        _agrees_with_eager_build(alg, concept_names(alg), concept_leq_by_extents(alg.concepts))
    assert any(not check_compatibility(alg.frame).passed for alg in algebras)
    assert max(alg.size for alg in algebras) > 100
    sizes = []
    for a, b in zip(algebras, algebras[1:] + algebras[:1]):
        if a.signature != b.signature or a.size * b.size > 400:
            continue
        prod = product_algebra(a, b)
        names = product_names(concept_names(a), concept_names(b))
        _agrees_with_eager_build(prod, names, product_leq_by_pairs(a, b))
        sizes.append(prod.size)
    assert len(sizes) >= 10 and max(sizes) > 50


@pytest.mark.parametrize(
    "leq, message",
    [
        ([[1, 0], [0, 0]], "leq is not reflexive"),
        ([[1, 1], [1, 1]], "leq is not antisymmetric"),
        ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], "leq is not transitive"),
    ],
)
def test_orders_given_by_the_user_are_checked(leq, message):
    leq = [[bool(x) for x in row] for row in leq]
    names = [f"e{i}" for i in range(len(leq))]
    with pytest.raises(NotALatticeError, match=f"^{message}$"):
        FiniteAlgebra(names, leq, EMPTY_SIGNATURE, {})
    above, below = cones_of(leq)
    with pytest.raises(NotALatticeError, match=f"^{message}$"):
        FiniteAlgebra.from_cones(names, above, below, EMPTY_SIGNATURE, {})


def test_algebra_files_are_checked():
    # a file's leq is closed reflexively and transitively, so of the three
    # order laws only antisymmetry can fail there
    data = {
        "elements": ["a", "b", "c"],
        "leq": [["a", "b"], ["b", "c"], ["c", "a"]],
        "signature": {"connectives": []},
        "ops": {},
    }
    with pytest.raises(NotALatticeError, match="^leq is not antisymmetric$"):
        algebra_from_dict(data)


def test_lattices_by_construction_do_no_hidden_work(monkeypatch):
    # building, checking normality and validity make no order check and
    # no names; only a reader of the names (messages, to_dict) builds them
    checked = []
    check_order_of = FiniteAlgebra._check_order

    def counted(alg):
        checked.append(alg)
        return check_order_of(alg)

    monkeypatch.setattr(FiniteAlgebra, "_check_order", counted)
    rng = random.Random(73)
    seq = parse_sequent("box (p /\\ q) |- box p \\/ q", SIG_BOX)
    boxes = [build_complex_algebra(_box_frame(rng, side, side, 0.6)) for side in (4, 8, 12)]
    booleans = [
        build_complex_algebra(boolean_frame(rng, k, SIG_BOX.connectives), check=False)
        for k in (2, 3)
    ]
    products = [product_algebra(boxes[0], boxes[1]), product_algebra(*booleans)]
    for alg in boxes + booleans + products:
        assert verify_normality(alg).passed
        assert not {"names", "meet", "join", "leq"} & set(vars(alg))
        algebra_validates(alg, seq)
        assert "names" not in vars(alg)
    assert not checked
    # the count does see the order check of an algebra given by its order
    assert products[0].names[1] == f"({boxes[0].names[0]}, {boxes[1].names[1]})"
    algebra_from_dict(products[0].to_dict())
    assert len(checked) == 1


def test_lattices_by_construction_skip_the_op_table_check(monkeypatch):
    # lekit fills the tables of complex algebras and products itself:
    # building, checking normality and validity never check their entries
    checked = []
    check_ops_of = FiniteAlgebra._check_ops

    def counted(alg, ops):
        checked.append(alg)
        return check_ops_of(alg, ops)

    monkeypatch.setattr(FiniteAlgebra, "_check_ops", counted)
    rng = random.Random(79)
    seq = parse_sequent("box (p /\\ q) |- box p \\/ q", SIG_BOX)
    boxes = [build_complex_algebra(_box_frame(rng, side, side, 0.6)) for side in (3, 6)]
    mixed = build_complex_algebra(boolean_frame(rng, 2, SIG_MIX.connectives), check=False)
    for alg in boxes + [product_algebra(*boxes), mixed]:
        assert verify_normality(alg).passed
        if alg.signature == SIG_BOX:
            algebra_validates(alg, seq)
    assert not checked
    algebra_from_dict(boxes[0].to_dict())
    assert len(checked) == 1


_ORDER_AB = [[True, True], [False, True]]  # a <= b


@pytest.mark.parametrize(
    "ops, message",
    [
        ({}, "missing operation table for 'box'"),
        ({"box": {(0,): 0}}, "operation 'box': table has 1 entries, expected 2"),
        ({"box": {(0,): 0, (1,): 2}}, r"operation 'box': bad entry \(1,\) -> 2"),
        ({"box": {(0,): 0, (0, 1): 1}}, r"operation 'box': bad entry \(0, 1\) -> 1"),
        ({"box": {0: 0, 1: 1}}, "operation 'box': bad entry 0 -> 0"),
        ({"box": {(0,): 0, (1,): "b"}}, r"operation 'box': bad entry \(1,\) -> b"),
        (
            {"box": {(0,): 0, (1,): 1}, "dai": {(0,): 5}},
            r"operation tables with no matching connective: \['dai'\]",
        ),
    ],
)
def test_op_tables_given_by_the_user_are_checked(ops, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        FiniteAlgebra("ab", _ORDER_AB, SIG_BOX, ops)
    with pytest.raises(FormatError, match=f"^{message}$"):
        FiniteAlgebra.from_cones("ab", (0b11, 0b10), (0b01, 0b11), SIG_BOX, ops)


def test_op_tables_read_from_a_file_are_checked():
    data = FiniteAlgebra("ab", _ORDER_AB, SIG_BOX, {"box": {(0,): 0, (1,): 1}}).to_dict()
    data["ops"]["box"].pop()
    with pytest.raises(FormatError, match="^operation 'box': table has 1 entries, expected 2$"):
        algebra_from_dict(data)


def test_op_tables_for_no_connective_are_refused():
    # a table for a connective the signature lacks, here naming no element
    data = FiniteAlgebra("ab", _ORDER_AB, SIG_BOX, {"box": {(0,): 0, (1,): 1}}).to_dict()
    data["ops"]["dai"] = [["a", "zz"]]
    message = r"^operation tables with no matching connective: \['dai'\]$"
    with pytest.raises(FormatError, match=message):
        algebra_from_dict(data)
