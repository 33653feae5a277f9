"""Finite algebras, complex algebras, normality, and homomorphisms."""

import gc
import random
import weakref

import pytest

from lekit import (
    FiniteAlgebra,
    Frame,
    NotALatticeError,
    Polarity,
    algebra_from_dict,
    algebra_validates,
    build_complex_algebra,
    check_complete_homomorphism,
    coproduct,
    filter_ideal_frame,
    find_isomorphism,
    parse_sequent,
    product_algebra,
    verify_normality,
)
from lekit.algebra import residuated
from lekit.frame import Relation, connective_sorts
from lekit.sampling import (
    SIG_BOX,
    random_box_frame,
    random_polarity,
    stabilize_box_relation,
)
from lekit.syntax import EMPTY_SIGNATURE, Connective, Signature

from conftest import (
    all_box_frames_2x2,
    boolean_frame,
    build_table,
    check_order,
    concept_leq_by_extents,
    cones_of,
    find_isomorphism_by_leq,
    leq_closure_fixpoint,
    mask_of,
    normality_by_lookup,
    product_leq_by_pairs,
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
    ok = check_complete_homomorphism([0, 3], dom, cod)
    assert ok.passed
    bad = check_complete_homomorphism([1, 3], dom, cod)  # does not send bot to bot
    assert not bad.passed
    # splitting the incomparable pair across the chain is a homomorphism
    ok2 = check_complete_homomorphism([0, 1, 0, 1], cod, dom)
    assert ok2.passed
    # collapsing both to 1 breaks the meet: a /\ b = bot but 1 /\ 1 = 1
    bad2 = check_complete_homomorphism([0, 1, 1, 1], cod, dom)
    assert not bad2.passed


def test_op_preservation_checked():
    sig = Signature((Connective("box", "G", 1, ("1",)),))
    leq2 = [[True, True], [False, True]]
    dom = FiniteAlgebra(["0", "1"], leq2, sig, {"box": {(0,): 0, (1,): 1}})
    cod = FiniteAlgebra(["0", "1"], leq2, sig, {"box": {(0,): 0, (1,): 1}})
    assert check_complete_homomorphism([0, 1], dom, cod).passed
    cod2 = FiniteAlgebra(["0", "1"], leq2, sig, {"box": {(0,): 1, (1,): 1}})
    rep = check_complete_homomorphism([0, 1], dom, cod2)
    assert not rep.passed


def test_find_isomorphism_random_frames():
    rng = random.Random(9)
    for _ in range(15):
        fr = random_box_frame(rng)
        alg = build_complex_algebra(fr)
        iso = find_isomorphism(alg, alg)
        assert iso is not None
        assert check_complete_homomorphism(iso, alg, alg).passed


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


def test_le_and_to_dict_read_the_cones():
    alg = diamond()
    assert [[alg.le(i, j) for j in range(4)] for i in range(4)] == [
        list(row) for row in alg.leq
    ]
    again = algebra_from_dict(alg.to_dict())
    assert (again.above, again.below) == (alg.above, alg.below)


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
    ops = {name: dict(table) for name, table in alg.ops.items()}
    table = ops[conn.name]
    if rng.random() < 0.3:  # an entry with a bound somewhere, where unit laws are read
        bounds = (alg.bot, alg.top)
        args = tuple(
            rng.choice(bounds) if rng.random() < 0.5 else rng.randrange(alg.size)
            for _ in range(conn.arity)
        )
    else:
        args = tuple(rng.randrange(alg.size) for _ in range(conn.arity))
    table[args] = rng.choice([v for v in range(alg.size) if v != table[args]])
    return FiniteAlgebra.from_cones(
        alg.names, alg.above, alg.below, alg.signature, ops, lattice=True
    )


def test_residuation_matches_pair_lookup_on_normal_and_damaged_algebras():
    rng = random.Random(59)
    laws, damaged, sizes, kinds = set(), 0, [], set()
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
    assert max(sizes) > 500 and damaged >= 300
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
