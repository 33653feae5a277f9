"""Relation sections, compatibility checking, and frame serialization."""

import random
from itertools import product

import pytest

from lekit import (
    Connective,
    Frame,
    IncompatibleFrameError,
    LekitError,
    PMorphism,
    Polarity,
    Signature,
    SortError,
    check_compatibility,
    check_compatibility_alt,
    frame_from_dict,
    load_frame,
    save_frame,
)
from lekit.frame import (
    Relation,
    _section_at,
    connective_sorts,
    point_sections,
    section_table,
    section_zero,
)
from lekit.sampling import SIG_BOX

from conftest import (
    SIG_MIX,
    all_box_frames_2x2,
    boolean_frame,
    compatibility_by_swaps,
    golden_path,
    load_json,
    random_box_frame,
    random_frame,
    random_polarity,
    random_relation,
    section_i,
    subsets,
)


def test_connective_sorts():
    f = Connective("f", "F", 2, ("1", "d"))
    g = Connective("g", "G", 2, ("1", "d"))
    assert connective_sorts(f) == ("U", "W", "U")
    assert connective_sorts(g) == ("W", "U", "W")


def test_section_zero_by_hand():
    # binary relation R <= U x W x U, tuples: head u related to (w, u')
    rel = Relation(
        ("U", "W", "U"), (2, 2, 2), {(0, 0, 0), (0, 1, 0), (1, 0, 1)}
    )
    # heads related to every pair in {w0} x {u0}
    assert section_zero(rel, (0b01, 0b01)) == 0b01
    # heads related to every pair in {w0,w1} x {u0}
    assert section_zero(rel, (0b11, 0b01)) == 0b01
    # heads related to every pair in {w0} x {u1}
    assert section_zero(rel, (0b01, 0b10)) == 0b10
    # empty argument product: every head qualifies
    assert section_zero(rel, (0, 0b01)) == 0b11
    assert section_zero(rel, (0b11, 0b11)) == 0


def test_section_i_matches_definition():
    rng = random.Random(7)
    sorts = ("U", "W", "U")
    for _ in range(50):
        tuples = {
            (rng.randrange(2), rng.randrange(2), rng.randrange(2))
            for _ in range(rng.randrange(6))
        }
        rel = Relation(sorts, (2, 2, 2), tuples)
        # i-section at a single point equals a direct membership scan
        for i in (1, 2):
            for head in range(2):
                for other in range(2):
                    got = section_i(rel, i, 1 << head, (1 << other,))
                    assert _section_at(rel, i, (1 << head, 1 << other)) == got
                    expect = 0
                    for cand in range(2):
                        full = [None, None, None]
                        full[0] = head
                        full[i] = cand
                        full[3 - i] = other
                        if tuple(full) in tuples:
                            expect |= 1 << cand
                    # got collects candidates c with (head, ..c..) in rel
                    assert got == expect


def _scan_section(tuples, head_size, sizes, masks):
    """Heads h with (h, *args) in tuples for every args in the mask product.

    Reads the raw tuples only, so it shares no code with the section kernel.
    """
    members = [
        [v for v in range(size) if m >> v & 1] for size, m in zip(sizes, masks)
    ]
    out = 0
    for h in range(head_size):
        if all((h,) + args in tuples for args in product(*members)):
            out |= 1 << h
    return out


def _random_pairs(rng, n, m):
    density = rng.random()
    return {(a, b) for a in range(n) for b in range(m) if rng.random() < density}


def _random_masks(rng, size, k=6):
    return [0, (1 << size) - 1] + [rng.randrange(1 << size) for _ in range(k)]


def _check_polarity_sections(rng):
    nw, nu = rng.randint(1, 20), rng.randint(1, 20)
    pairs = _random_pairs(rng, nw, nu)
    pol = Polarity([f"w{i}" for i in range(nw)], [f"u{i}" for i in range(nu)], pairs)
    converse = {(u, w) for w, u in pairs}
    for x in _random_masks(rng, nw):
        assert pol.up(x) == _scan_section(converse, nu, (nw,), (x,))
    for y in _random_masks(rng, nu):
        assert pol.down(y) == _scan_section(pairs, nw, (nu,), (y,))


def _random_frame(rng, max_size=12):
    nw, nu = rng.randint(1, max_size), rng.randint(1, max_size)
    pol = Polarity(
        [f"w{i}" for i in range(nw)],
        [f"u{i}" for i in range(nu)],
        _random_pairs(rng, nw, nu),
    )
    rel = Relation(connective_sorts(SIG_BOX.connectives[0]), (nw, nu), ())
    return Frame(pol, SIG_BOX, {"box": rel})


def _check_pmorphism_sections(rng):
    src, tgt = _random_frame(rng), _random_frame(rng)
    sp, tp = src.polarity, tgt.polarity
    pm = PMorphism(
        src, tgt, _random_pairs(rng, sp.nw, tp.nu), _random_pairs(rng, sp.nu, tp.nw)
    )
    s, t = set(pm.s_pairs), set(pm.t_pairs)
    s_conv = {(u, w) for w, u in s}
    t_conv = {(w, u) for u, w in t}
    for y in _random_masks(rng, tp.nu):  # S 0-section
        assert pm.S.down(y) == _scan_section(s, sp.nw, (tp.nu,), (y,))
    for x in _random_masks(rng, sp.nw):  # S 1-section
        assert pm.S.up(x) == _scan_section(s_conv, tp.nu, (sp.nw,), (x,))
    for x in _random_masks(rng, tp.nw):  # T 0-section
        assert pm.T.down(x) == _scan_section(t, sp.nu, (tp.nw,), (x,))
    for y in _random_masks(rng, sp.nu):  # T 1-section
        assert pm.T.up(y) == _scan_section(t_conv, tp.nw, (sp.nu,), (y,))


def _random_sorted_relation(rng, max_size=5):
    """A relation of arity 0-3 on random sorts, of random density."""
    arity = rng.randint(0, 3)
    conn = Connective(
        "c", rng.choice("FG"), arity, tuple(rng.choice("1d") for _ in range(arity))
    )
    sorts = connective_sorts(conn)
    size = {"W": rng.randint(1, max_size), "U": rng.randint(1, max_size)}
    sizes = tuple(size[s] for s in sorts)
    density = rng.random()
    tuples = {
        t for t in product(*(range(n) for n in sizes)) if rng.random() < density
    }
    return Relation(sorts, sizes, tuples)


def _check_relation_sections(rng):
    rel = _random_sorted_relation(rng)
    arity, sizes = rel.arity, rel.sizes
    for j in range(arity + 1):
        # the section at j is the 0-section of the tuples with j moved first
        moved = {(t[j],) + t[:j] + t[j + 1 :] for t in rel.tuples}
        other_sizes = sizes[:j] + sizes[j + 1 :]
        for _ in range(20):
            masks = tuple(
                rng.choice(_random_masks(rng, n, k=2)) for n in other_sizes
            )
            expect = _scan_section(moved, sizes[j], other_sizes, masks)
            if j == 0:
                assert section_zero(rel, masks) == expect
            else:
                assert _section_at(rel, j, masks) == section_i(rel, j, masks[0], masks[1:]) == expect
    for i in (0, arity + 1):
        with pytest.raises(SortError):
            section_i(rel, i, 1, (1,) * (arity - 1))
    with pytest.raises(SortError):
        _section_at(rel, arity + 1, (1,) * arity)


@pytest.mark.parametrize(
    "check",
    [_check_polarity_sections, _check_pmorphism_sections, _check_relation_sections],
    ids=["polarity", "pmorphism", "relation"],
)
def test_sections_match_raw_pairs(check):
    rng = random.Random(2024)
    for _ in range(150):
        check(rng)


def _relation_of_sizes(rng, sizes):
    """A relation of random density with the given coordinate sizes, head
    first; section_table reads no sorts, so all coordinates but the head
    are labelled U."""
    density = rng.random()
    tuples = {t for t in product(*map(range, sizes)) if rng.random() < density}
    return Relation(("W",) + ("U",) * (len(sizes) - 1), sizes, tuples)


def test_section_table_matches_section_zero():
    # every argument tuple of the mask lists, in product order, on dense and
    # sparse relations (prefixes with no row) and with empty and full masks
    rng = random.Random(2027)
    cases = []
    for _ in range(300):
        rel = _random_sorted_relation(rng, max_size=7)
        if rng.random() < 0.3:  # sparse: most prefixes have no row
            rel = Relation(rel.sorts, rel.sizes, [t for t in rel.tuples if rng.random() < 0.1])
        # one coordinate may take more than 32 masks, which meet_each reads
        # from byte tables
        cases.append((rel, rng.randrange(max(rel.arity, 1)), 1))
    # fixed shapes, each with more than 32 masks at its outermost coordinate
    for arity in (1, 2, 3):
        # a sort of no points at the head or at one coordinate
        for empty in range(arity + 1):
            sizes = [3] * (arity + 1)
            sizes[empty] = 0
            cases.append((_relation_of_sizes(rng, tuple(sizes)), 0, 33))
        # head sorts at either side of a whole byte and of the widest
        # machine lane, and beyond it
        for head in (8, 9, 64, 65, 100):
            sizes = (head,) + tuple(rng.randint(1, 4) for _ in range(arity))
            cases.append((_relation_of_sizes(rng, sizes), 0, 33))
    arities = set()
    for rel, long, fewest in cases:
        counts = [
            rng.randint(fewest, 40) if k == long else rng.randint(1, 5) for k in range(rel.arity)
        ]
        reads = [
            [rng.choice(_random_masks(rng, n)) for _ in range(count)]
            for n, count in zip(rel.sizes[1:], counts)
        ]
        expect = [section_zero(rel, args) for args in product(*reads)]
        assert section_table(rel, reads) == expect
        arities.add(rel.arity)
    assert arities == {0, 1, 2, 3}


def test_point_sections_are_the_sections_of_singletons():
    rng = random.Random(2029)
    frames = [random_frame(rng, SIG_MIX, 4) for _ in range(20)]
    frames += [boolean_frame(rng, k, SIG_MIX.connectives) for k in (1, 2, 3)]
    for fr in frames:
        for rel in fr.relations.values():
            for j in range(rel.arity + 1):
                expect = []
                for tup in product(*map(range, rel.sizes[:j] + rel.sizes[j + 1 :])):
                    singletons = tuple(1 << v for v in tup)
                    if j == 0:
                        expect.append(section_zero(rel, singletons))
                    else:
                        expect.append(section_i(rel, j, singletons[0], singletons[1:]))
                assert point_sections(rel, j) == expect
    assert {rel.arity for rel in frames[0].relations.values()} == {0, 1, 2}


def test_section_antitone_in_arguments():
    rng = random.Random(11)
    for _ in range(30):
        fr = random_box_frame(rng)
        rel = fr.relations["box"]
        nu = fr.polarity.nu
        for y in subsets(nu):
            for y2 in subsets(nu):
                if y | y2 == y2:  # y <= y2
                    s1 = section_zero(rel, (y,))
                    s2 = section_zero(rel, (y2,))
                    assert s2 & s1 == s2


def test_compatibility_pass_and_fail():
    pol = Polarity(["a", "b"], ["x", "y"], [(0, 0), (1, 1)])
    sorts = connective_sorts(SIG_BOX.connectives[0])
    good = Frame(
        pol, SIG_BOX, {"box": Relation(sorts, (2, 2), {(0, 1), (1, 0)})}
    )
    assert check_compatibility(good).passed
    # with N total, only full or empty subsets are stable, so the
    # singleton 1-section of this relation violates compatibility
    full = Polarity(["a", "b"], ["x", "y"], [(0, 0), (0, 1), (1, 0), (1, 1)])
    bad = Frame(full, SIG_BOX, {"box": Relation(sorts, (2, 2), {(0, 0)})})
    report = check_compatibility(bad)
    assert not report.passed
    assert report.connective == "box"
    assert "box" in report.message


def test_compatibility_checkers_agree_exhaustively():
    # every 2x2 polarity, every unary relation, both checkers
    frames_checked = 0
    cells = [(w, u) for w in range(2) for u in range(2)]
    sorts = connective_sorts(SIG_BOX.connectives[0])
    for nmask in subsets(4):
        pol = Polarity(
            ["w0", "w1"],
            ["u0", "u1"],
            [c for i, c in enumerate(cells) if nmask >> i & 1],
        )
        for rmask in subsets(4):
            tuples = {c for i, c in enumerate(cells) if rmask >> i & 1}
            fr = Frame(pol, SIG_BOX, {"box": Relation(sorts, (2, 2), tuples)})
            assert (
                check_compatibility(fr).passed
                == check_compatibility_alt(fr).passed
            )
            frames_checked += 1
    assert frames_checked == 256


def test_compatibility_reports_match_swapped_copies():
    # each connective alone, so that later sections and passes show up too
    rng = random.Random(808)
    seen = set()
    for k in range(300):
        sig = Signature((SIG_MIX.connectives[k % 5],)) if k % 2 else SIG_MIX
        fr = random_frame(rng, sig, 5)
        report = check_compatibility(fr)
        assert report == compatibility_by_swaps(fr)
        seen.add(report.section)
    assert seen == {None, "0-section", "1-section", "2-section"}


def test_compatibility_memo_keeps_reports():
    # full and empty relations repeat one section mask at every point tuple,
    # so masks found stable early come back before a later section fails
    rng = random.Random(4242)
    sorts_seen = set()
    failing = 0
    for _ in range(200):
        pol = random_polarity(rng, rng.randint(1, 3), rng.randint(1, 3))
        relations = {}
        for conn in SIG_MIX.connectives:
            rel = random_relation(rng, pol, conn)
            kind = rng.choice(("full", "empty", "drawn"))
            if kind != "drawn":
                every = product(*(range(n) for n in rel.sizes)) if kind == "full" else ()
                rel = Relation(rel.sorts, rel.sizes, every)
            relations[conn.name] = rel
        fr = Frame(pol, SIG_MIX, relations)
        report = check_compatibility(fr)
        assert report.passed == check_compatibility_alt(fr).passed
        assert report == compatibility_by_swaps(fr)
        if not report.passed:
            failing += 1
            sorts_seen.add((report.connective, report.section))
    assert failing >= 100
    assert {c.name for c in SIG_MIX.connectives} <= {c for c, _ in sorts_seen}


def test_compatible_frame_census_2x2():
    # frozen count of compatible 2x2 frames over the box signature
    assert len(all_box_frames_2x2()) == 75


def test_frame_validation_errors():
    pol = Polarity(["a"], ["x"], [(0, 0)])
    sorts = connective_sorts(SIG_BOX.connectives[0])
    with pytest.raises(Exception):
        # head index out of range
        Frame(pol, SIG_BOX, {"box": Relation(sorts, (1, 1), {(0, 5)})})
    with pytest.raises(Exception):
        # missing relation for a declared connective
        Frame(pol, SIG_BOX, {})


def test_save_load_round_trip(tmp_path, frame_f1):
    path = tmp_path / "frame.json"
    save_frame(frame_f1, path)
    back = load_frame(path)
    assert back.polarity.w_names == frame_f1.polarity.w_names
    assert back.polarity.u_names == frame_f1.polarity.u_names
    assert back.polarity.pairs == frame_f1.polarity.pairs
    assert back.relations["box"].tuples == frame_f1.relations["box"].tuples


def test_load_rejects_incompatible(tmp_path):
    sorts = connective_sorts(SIG_BOX.connectives[0])
    pol = Polarity(["a", "b"], ["x", "y"], [(0, 0), (0, 1), (1, 0), (1, 1)])
    bad = Frame(pol, SIG_BOX, {"box": Relation(sorts, (2, 2), {(0, 0)})})
    path = tmp_path / "bad.json"
    save_frame(bad, path)
    with pytest.raises(IncompatibleFrameError):
        load_frame(path)
    loaded = load_frame(path, check=False)
    assert not check_compatibility(loaded).passed


def _signature(**field):
    box = {"name": "box", "family": "G", "arity": 1, "order_type": ["1"], **field}
    return {"signature": {"connectives": [box]}}


@pytest.mark.parametrize(
    "change",
    [
        {"U": "xy", "N": [], "relations": {"box": []}},
        {"W": [1, 2], "N": [], "relations": {"box": []}},
        {"N": [5]},
        {"N": [["a1", ["x1"]]]},
        {"N": [["a1", "x1", "y1"]]},
        {"relations": [["a1", "y1"]]},
        {"relations": {"box": [["a1", {"y1": 1}]]}},
        _signature(name=5),
        _signature(order_type=[["1"]]),
    ],
)
def test_frame_from_dict_rejects_malformed_shapes(change):
    data = load_json("coproduct_F1.json")
    data.update(change)
    with pytest.raises(LekitError):
        frame_from_dict(data)


def test_golden_frames_are_compatible():
    for name in (
        "coproduct_F1.json",
        "coproduct_F2.json",
        "morphism1_F1.json",
        "morphism1_F2.json",
        "morphism2_F2.json",
        "empty.json",
    ):
        assert check_compatibility(load_frame(golden_path(name))).passed
