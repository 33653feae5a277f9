"""Galois connection, closures, and concept enumeration."""

import random

import pytest
from hypothesis import given, strategies as st

from lekit import CapExceededError, FormatError, Polarity, enumerate_concepts
from lekit.bitset import bits, names_of
from lekit.polarity import concept_of_u, concept_of_w

from conftest import brute_concepts, mask_of, subsets


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
