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
    check_compatibility,
    check_compatibility_alt,
    frame_from_dict,
    load_frame,
    save_frame,
)
from lekit.frame import Relation, connective_sorts, section_i, section_zero
from lekit.sampling import SIG_BOX, random_box_frame

from conftest import all_box_frames_2x2, golden_path, load_json, subsets


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


def _check_relation_sections(rng):
    arity = rng.randint(0, 3)
    conn = Connective(
        "c", rng.choice("FG"), arity, tuple(rng.choice("1d") for _ in range(arity))
    )
    sorts = connective_sorts(conn)
    size = {"W": rng.randint(1, 5), "U": rng.randint(1, 5)}
    sizes = tuple(size[s] for s in sorts)
    density = rng.random()
    tuples = {
        t for t in product(*(range(n) for n in sizes)) if rng.random() < density
    }
    rel = Relation(sorts, sizes, tuples)
    for _ in range(20):
        masks = tuple(
            rng.choice(_random_masks(rng, n, k=2)) for n in sizes[1:]
        )
        expect = _scan_section(rel.tuples, sizes[0], sizes[1:], masks)
        assert section_zero(rel, masks) == expect


@pytest.mark.parametrize(
    "check",
    [_check_polarity_sections, _check_pmorphism_sections, _check_relation_sections],
    ids=["polarity", "pmorphism", "relation"],
)
def test_sections_match_raw_pairs(check):
    rng = random.Random(2024)
    for _ in range(150):
        check(rng)


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
