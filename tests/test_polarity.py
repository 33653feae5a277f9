"""Galois connection, closures, and concept enumeration."""

import random

import pytest
from hypothesis import given, strategies as st

from lekit import (
    CapExceededError,
    FormatError,
    Frame,
    Polarity,
    Signature,
    build_complex_algebra,
    enumerate_concepts,
    frame_validates,
    parse_sequent,
)
from lekit import polarity
from lekit.bitset import bits, meet_each, meet_rows, meet_table, names_of, transpose
from lekit.polarity import Concept, concept_pairs

from conftest import (
    brute_concepts,
    concepts_by_close_by_one,
    concepts_by_next_closure,
    concept_of_u,
    concept_of_w,
    mask_of,
    random_box_frame,
    subsets,
)


def rand_polarity(nw, nu, pair_mask):
    cells = [(w, u) for w in range(nw) for u in range(nu)]
    pairs = [c for i, c in enumerate(cells) if pair_mask >> i & 1]
    return Polarity(
        [f"w{i}" for i in range(nw)], [f"u{i}" for i in range(nu)], pairs
    )


polarity_strategy = st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**16 - 1)
).map(lambda t: rand_polarity(t[0], t[1], t[2] % (1 << (t[0] * t[1]))))


def test_bitset_helpers():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
    assert list(subsets(2)) == [0, 1, 2, 3]
    assert names_of(0b101, ["a", "b", "c"]) == ("a", "c")


def test_up_down_by_hand():
    # N = {(w0,u0), (w1,u0), (w1,u1)}
    pol = Polarity(["w0", "w1"], ["u0", "u1"], [(0, 0), (1, 0), (1, 1)])
    assert pol.up(0b01) == 0b01  # {w0} -> {u0}
    assert pol.up(0b10) == 0b11  # {w1} -> {u0,u1}
    assert pol.up(0b11) == 0b01
    assert pol.up(0) == 0b11  # empty set relates to everything
    assert pol.down(0b10) == 0b10  # {u1} -> {w1}
    assert pol.down(0) == 0b11


@given(polarity_strategy, st.integers(0, 15), st.integers(0, 15))
def test_galois_connection(pol, xm, ym):
    x = xm & pol.full("W")
    y = ym & pol.full("U")
    # X <= down(Y)  iff  Y <= up(X)
    assert (x & pol.down(y) == x) == (y & pol.up(x) == y)


@given(polarity_strategy, st.integers(0, 15), st.integers(0, 15))
def test_closure_properties(pol, xm, ym):
    x = xm & pol.full("W")
    x2 = xm >> 4 & pol.full("W")
    cx = pol.closure_w(x)
    assert cx & x == x  # increasing
    assert pol.closure_w(cx) == cx  # idempotent
    if x & x2 == x:  # monotone
        assert pol.closure_w(x2) & cx == cx
    cy = pol.closure_u(ym & pol.full("U"))
    assert pol.closure_u(cy) == cy


@given(polarity_strategy, st.integers(0, 15))
def test_antitone_and_triple(pol, xm):
    x = xm & pol.full("W")
    up = pol.up(x)
    # up . down . up = up
    assert pol.up(pol.down(up)) == up
    for w in range(pol.nw):
        sub = x & ~(1 << w)
        assert pol.up(sub) & up == up  # antitone


@given(polarity_strategy)
def test_enumerate_concepts_against_brute_force(pol):
    concepts = enumerate_concepts(pol)
    got = {(c.extent, c.intent) for c in concepts}
    assert got == brute_concepts(pol)
    # sorted by extent, no duplicates
    extents = [c.extent for c in concepts]
    assert extents == sorted(extents)
    assert len(set(extents)) == len(extents)


@given(polarity_strategy)
def test_concepts_form_a_closure_family(pol):
    concepts = enumerate_concepts(pol)
    extents = {c.extent for c in concepts}
    # intersections of extents are extents; W itself is an extent
    assert pol.full("W") in {pol.closure_w(e) for e in extents} or pol.full(
        "W"
    ) in extents
    for a in extents:
        for b in extents:
            assert a & b in extents
    for c in concepts:
        assert pol.up(c.extent) == c.intent
        assert pol.down(c.intent) == c.extent


def test_concept_of_generators():
    pol = Polarity(["a", "b"], ["x", "y"], [(0, 0), (1, 1)])
    c = concept_of_w(pol, 0)
    assert c.extent == 0b01 and c.intent == 0b01
    c = concept_of_u(pol, 1)
    assert c.extent == 0b10 and c.intent == 0b10


def test_enumeration_cap():
    # N = "not equal": every subset is stable, so there are 64 concepts
    pol = Polarity(
        [f"w{i}" for i in range(6)],
        [f"u{i}" for i in range(6)],
        [(w, u) for w in range(6) for u in range(6) if w != u],
    )
    with pytest.raises(CapExceededError):
        enumerate_concepts(pol, cap=8)


def test_cap_counts_concepts_found():
    pol = rand_polarity(3, 3, 0b100010001)  # N = "equal": 5 concepts
    assert len(enumerate_concepts(pol, cap=5)) == 5
    with pytest.raises(CapExceededError, match="--cap"):
        enumerate_concepts(pol, cap=4)
    with pytest.raises(CapExceededError):
        enumerate_concepts(pol, cap=0)


@pytest.mark.parametrize("nw,nu", [(20, 20), (24, 31), (31, 24)])
def test_large_polarity_with_few_concepts(nw, nu):
    # above 2**16 subsets of either side, so only a count of the concepts
    # found lets the default cap through
    rng = random.Random(nw * 100 + nu)
    pairs = [(w, u) for w in range(nw) for u in range(nu) if rng.random() < 0.15]
    pol = Polarity([f"w{i}" for i in range(nw)], [f"u{i}" for i in range(nu)], pairs)
    # oracle: the extents are the intersections of attribute extents, plus W
    extents = {pol.full_w}
    for u in range(nu):
        extents |= {e & pol.down(1 << u) for e in extents}
    concepts = enumerate_concepts(pol)
    assert [c.extent for c in concepts] == sorted(extents)
    assert all(c.intent == pol.up(c.extent) for c in concepts)


def _seeded_polarities():
    rng = random.Random(2024)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 14), (14, 1), (14, 14), (9, 13), (13, 9)]
    shapes += [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(40)]
    for k, (nw, nu) in enumerate(shapes):
        density = (0.1, 0.3, 0.5, 0.7, 0.9)[k % 5]
        pairs = [(w, u) for w in range(nw) for u in range(nu) if rng.random() < density]
        yield pytest.param(
            Polarity([f"w{i}" for i in range(nw)], [f"u{i}" for i in range(nu)], pairs),
            id=f"{k}-{nw}x{nu}-d{density}",
        )


@pytest.mark.parametrize("pol", list(_seeded_polarities()))
def test_next_closure_matches_brute_force(pol):
    concepts = enumerate_concepts(pol)
    assert [(c.extent, c.intent) for c in concepts] == sorted(brute_concepts(pol))


@pytest.mark.parametrize("pol", list(_seeded_polarities()))
def test_concept_pairs_are_plain_tuples(pol):
    # lekit reads the pairs inside; enumerate_concepts hands out Concepts,
    # and so do the counter-valuations of frame validity
    pairs = concept_pairs(pol)
    assert all(type(pair) is tuple for pair in pairs)
    assert pairs == sorted(brute_concepts(pol)) == enumerate_concepts(pol)
    verdict = frame_validates(Frame(pol, Signature(()), {}), parse_sequent("p |- q"))
    assert verdict.valid == (len(pairs) == 1)
    assert all(type(c) is Concept for c in (verdict.counter_valuation or {}).values())


def test_empty_polarity_has_one_concept():
    pol = Polarity([], [], [])
    concepts = enumerate_concepts(pol)
    assert len(concepts) == 1
    assert concepts[0].extent == 0 and concepts[0].intent == 0


@pytest.mark.parametrize("entry", ["ax", ("a",), ("a", "x", "x"), {"a": "x"}, 5, [["a"], "x"]])
def test_from_names_refuses_entries_that_are_not_pairs(entry):
    # a two-character string is not the pair of its characters
    with pytest.raises(FormatError, match="is not a pair of point names"):
        Polarity.from_names(["a"], ["x"], [entry])
    assert Polarity.from_names(["a"], ["x"], [("a", "x")]).pairs == {(0, 0)}


def _differential_polarities():
    # every shape at every density, then drawn shapes; both sides empty,
    # one side empty, and nw < nu and nw > nu in turn
    rng = random.Random(1010)
    densities = (0.05, 0.3, 0.5, 0.7, 0.95)
    shapes = [(0, 0), (0, 20), (20, 0), (1, 20), (20, 1), (20, 20), (13, 20), (20, 13), (7, 16)]
    cases = [(nw, nu, d) for nw, nu in shapes for d in densities]
    cases += [(rng.randint(0, 20), rng.randint(0, 20), rng.uniform(0.05, 0.95)) for _ in range(30)]
    for k, (nw, nu, density) in enumerate(cases):
        pairs = [(w, u) for w in range(nw) for u in range(nu) if rng.random() < density]
        yield pytest.param(
            Polarity([f"w{i}" for i in range(nw)], [f"u{i}" for i in range(nu)], pairs),
            id=f"{k}-{nw}x{nu}-d{density:.2f}",
        )


DIFFERENTIAL_POLARITIES = list(_differential_polarities())


@pytest.mark.parametrize("pol", DIFFERENTIAL_POLARITIES)
def test_close_by_one_matches_next_closure(pol):
    # the AND-closure enumeration against the Close-by-One it replaced and
    # against NextClosure, and its cap at the exact concept count
    concepts = enumerate_concepts(pol, 1 << 20)
    got = [(c.extent, c.intent) for c in concepts]
    assert got == concepts_by_close_by_one(pol, 1 << 20)
    assert got == concepts_by_next_closure(pol, 1 << 20)
    assert concepts == got and all(type(c) is Concept for c in concepts)
    if max(pol.nw, pol.nu) <= 12:
        assert got == sorted(brute_concepts(pol))
    count = len(got)
    assert enumerate_concepts(pol, cap=count) == concepts
    message = rf"more than {count - 1} concepts; raise --cap or LEKIT_CAP to proceed"
    with pytest.raises(CapExceededError, match=message):
        enumerate_concepts(pol, cap=count - 1)
    with pytest.raises(CapExceededError, match=message):
        concepts_by_close_by_one(pol, count - 1)


@pytest.mark.parametrize("pol", DIFFERENTIAL_POLARITIES)
def test_enumeration_closes_each_concept_once(pol, monkeypatch):
    # one meet_each over exactly the partners found: no closure per candidate
    calls = []

    def spy(rows, masks, full):
        calls.append(len(masks))
        return meet_each(rows, masks, full)

    monkeypatch.setattr(polarity, "meet_each", spy)
    concepts = enumerate_concepts(pol, 1 << 20)
    assert calls == [len(concepts)]


def test_concept_is_the_pair_it_holds():
    # Concept is a named (extent, intent) pair: it sorts, hashes and unpacks
    # as that pair, and it compares equal to the plain tuple on purpose, so
    # a set or dict of pairs finds a concept and the reverse
    pol = Polarity(["a", "b", "c"], ["x", "y"], [(0, 0), (1, 1), (2, 0), (2, 1)])
    concepts = enumerate_concepts(pol)
    pairs = sorted(brute_concepts(pol))
    assert concepts == pairs == [(c.extent, c.intent) for c in concepts]
    assert sorted(reversed(concepts)) == concepts
    assert sorted([Concept(2, 1), Concept(1, 3), Concept(1, 2)]) == [(1, 2), (1, 3), (2, 1)]
    c = concepts[1]
    extent, intent = c
    assert (extent, intent) == (c.extent, c.intent) == (c[0], c[1])
    assert hash(c) == hash((extent, intent))
    assert {c} == {(extent, intent)} and (extent, intent) in set(concepts)
    assert Concept(extent, intent) == c and Concept(intent, extent) != c
    assert repr(Concept(1, 2)) == "Concept(extent=1, intent=2)"
    assert [d.show(pol) for d in concepts] == [
        "({c}, {x, y})",
        "({a, c}, {x})",
        "({b, c}, {y})",
        "({a, b, c}, {})",
    ]


@pytest.mark.parametrize("nw,nu", [(7, 11), (11, 7)])
def test_cap_on_either_side(nw, nu):
    # nu <= nw ANDs the columns, nu > nw the rows; the cap counts concepts
    # either way
    rng = random.Random(nw * 31 + nu)
    pairs = [(w, u) for w in range(nw) for u in range(nu) if rng.random() < 0.6]
    pol = Polarity([f"w{i}" for i in range(nw)], [f"u{i}" for i in range(nu)], pairs)
    count = len(concepts_by_next_closure(pol, 1 << 20))
    assert count > 10
    assert len(enumerate_concepts(pol, cap=count)) == count
    for cap in (count - 1, 1, 0):
        with pytest.raises(CapExceededError, match=rf"more than {cap} concepts; raise --cap"):
            enumerate_concepts(pol, cap=cap)
        with pytest.raises(CapExceededError, match=rf"more than {cap} concepts; raise --cap"):
            concepts_by_next_closure(pol, cap)


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17, 24, 25])
def test_meet_table_matches_meet_rows(width):
    rng = random.Random(width)
    for row_bits in (3, 12, 40):
        full = (1 << row_bits) - 1
        rows = [rng.getrandbits(row_bits) | rng.getrandbits(row_bits) for _ in range(width)]
        meet = meet_table(rows, full)
        every = (1 << width) - 1
        masks = [0, every] + [rng.getrandbits(width) if width else 0 for _ in range(200)]
        masks += [1 << i for i in range(width)] + [every ^ 1 << i for i in range(width)]
        for m in masks:
            assert meet(m) == meet_rows(rows, m, full), (row_bits, m)
        for count in (0, 1, 32, 33, len(masks)):  # both sides of meet_each's choice
            assert meet_each(rows, masks[:count], full) == list(map(meet, masks[:count]))


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17])
def test_transpose_swaps_rows_and_columns(width):
    rng = random.Random(width)
    for count in (0, 1, 9, 100):
        masks = [rng.getrandbits(width) if width else 0 for _ in range(count)]
        columns = transpose(masks, width)
        assert len(columns) == width
        for j, col in enumerate(columns):
            assert col == mask_of(k for k, m in enumerate(masks) if m >> j & 1)


def test_no_memo_on_the_polarity():
    # Concepts are enumerated afresh on every call: a memo kept on the
    # polarity would turn repeated questions into lookups.
    fr = random_box_frame(random.Random(7), 6, 6)
    pol = fr.polarity
    before = dict(vars(pol))
    frame_before = dict(vars(fr))
    rel_keys = {name: set(vars(rel)) for name, rel in fr.relations.items()}
    enumerate_concepts(pol)
    build_complex_algebra(fr)
    frame_validates(fr, parse_sequent("box p |- p", fr.signature))
    assert vars(pol) == before
    assert all(vars(pol)[k] is v for k, v in before.items())
    assert vars(fr) == frame_before
    assert {name: set(vars(rel)) for name, rel in fr.relations.items()} == rel_keys
