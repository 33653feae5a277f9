"""Coproducts, filters and ideals, and filter-ideal frames."""

import random

import pytest

from lekit import (
    build_complex_algebra,
    canonical_embedding,
    check_compatibility,
    check_complete_homomorphism,
    coproduct,
    enumerate_concepts,
    filter_ideal_extension,
    filter_ideal_frame,
    filters,
    find_isomorphism,
    ideals,
    product_algebra,
    verify_normality,
)
from lekit.bitset import bits
from lekit.sampling import random_box_frame

from conftest import brute_filters, brute_ideals, mask_of


def test_coproduct_shapes(frame_f1, frame_f2):
    cp = coproduct([frame_f1, frame_f2])
    pol = cp.polarity
    assert pol.nw == 4 and pol.nu == 4
    assert set(pol.w_names) == {"1:a1", "1:b1", "2:a2", "2:b2"}
    # component pairs plus all cross-component pairs
    assert len(pol.pairs) == len(frame_f1.polarity.pairs) + len(
        frame_f2.polarity.pairs
    ) + 2 * frame_f1.polarity.nw * frame_f2.polarity.nu
    # box relation: component tuples plus all mixed tuples
    rel = cp.relations["box"]
    assert len(rel.tuples) == 2 + 2 + 2 * 4
    assert check_compatibility(cp).passed


def test_coproduct_concepts(frame_f1, frame_f2):
    cp = coproduct([frame_f1, frame_f2])
    assert len(enumerate_concepts(cp.polarity)) == 16


def test_coproduct_algebra_is_product_of_component_algebras():
    rng = random.Random(31)
    for _ in range(8):
        f1 = random_box_frame(rng)
        f2 = random_box_frame(rng)
        cp = coproduct([f1, f2])
        cp_alg = build_complex_algebra(cp)
        prod = product_algebra(
            build_complex_algebra(f1), build_complex_algebra(f2)
        )
        assert cp_alg.size == prod.size
        iso = find_isomorphism(cp_alg, prod)
        assert iso is not None
        assert check_complete_homomorphism(iso, cp_alg, prod).passed


def test_coproduct_custom_labels(frame_f1, frame_f2):
    cp = coproduct([frame_f1, frame_f2], labels=["L", "R"])
    assert "L:a1" in cp.polarity.w_names
    assert "R:x2" in cp.polarity.u_names


def test_filters_and_ideals_against_subset_scan():
    rng = random.Random(37)
    for _ in range(12):
        fr = random_box_frame(rng)
        alg = build_complex_algebra(fr)
        got_f = {mask_of(f) for f in filters(alg)}
        got_i = {mask_of(i) for i in ideals(alg)}
        assert got_f == set(brute_filters(alg))
        assert got_i == set(brute_ideals(alg))
        # in a finite lattice every filter is principal: count = size
        assert len(filters(alg)) == alg.size
        assert len(ideals(alg)) == alg.size


def test_filter_ideal_frame_shape():
    rng = random.Random(41)
    fr = random_box_frame(rng)
    alg = build_complex_algebra(fr)
    fif = filter_ideal_frame(alg)
    assert fif.polarity.nw == alg.size  # one filter per element
    assert fif.polarity.nu == alg.size  # one ideal per element
    assert check_compatibility(fif).passed
    assert verify_normality(build_complex_algebra(fif)).passed


def test_filter_ideal_incidence_is_overlap():
    rng = random.Random(43)
    fr = random_box_frame(rng)
    alg = build_complex_algebra(fr)
    fif = filter_ideal_frame(alg)
    flt = filters(alg)
    idl = ideals(alg)
    for i, fm in enumerate(flt):
        for j, im in enumerate(idl):
            assert ((i, j) in fif.polarity.pairs) == bool(fm & im)


def test_filter_ideal_algebra_recovers_original():
    rng = random.Random(47)
    for _ in range(10):
        fr = random_box_frame(rng)
        alg = build_complex_algebra(fr)
        fif = filter_ideal_frame(alg)
        fif_alg = build_complex_algebra(fif)
        emb = canonical_embedding(alg, fif_alg)
        assert sorted(set(emb)) == sorted(range(fif_alg.size))  # bijection
        assert check_complete_homomorphism(emb, alg, fif_alg).passed


def test_filter_ideal_extension_of_frame(frame_f1):
    ext = filter_ideal_extension(frame_f1)
    alg = build_complex_algebra(frame_f1)
    ext_alg = build_complex_algebra(ext)
    assert find_isomorphism(alg, ext_alg) is not None


def test_product_algebra_componentwise():
    rng = random.Random(53)
    a = build_complex_algebra(random_box_frame(rng))
    b = build_complex_algebra(random_box_frame(rng))
    prod = product_algebra(a, b)
    assert prod.size == a.size * b.size
    assert prod.top == a.top * b.size + b.top
    assert prod.bot == a.bot * b.size + b.bot
    for i in range(a.size):
        for j in range(b.size):
            for k in range(a.size):
                for l in range(b.size):
                    m = prod.meet[i * b.size + j][k * b.size + l]
                    assert m == a.meet[i][k] * b.size + b.meet[j][l]
