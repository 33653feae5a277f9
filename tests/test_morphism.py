"""P-morphism checking, dual homomorphisms, and round trips."""

import random

import pytest

from lekit import (
    FormatError,
    Frame,
    PMorphism,
    build_complex_algebra,
    check_compatibility,
    check_pmorphism,
    dual_hom,
    dual_pmorphism,
    is_injective,
    is_surjective,
)
from lekit.frame import Relation
from lekit.sampling import component_embedding, diagonal_surjection

from conftest import (
    SIG_MIX,
    boolean_frame,
    complete_homomorphism_failure,
    component_embedding_by_duality,
    diagonal_surjection_by_duality,
    identity_pmorphism,
    is_injective_by_scan,
    is_surjective_by_scan,
    pmorphism_report_by_family,
    random_box_frame,
    random_frame,
    random_pmorphism,
    random_relation,
)


def test_embedding_example_passes(m1_morphism):
    report = check_pmorphism(m1_morphism)
    assert report.passed, report.message
    assert is_injective(m1_morphism)
    assert not is_surjective(m1_morphism)


def test_embedding_example_dual_hom(m1_morphism):
    hom = dual_hom(m1_morphism)
    src_alg = build_complex_algebra(m1_morphism.source)
    tgt_alg = build_complex_algebra(m1_morphism.target)
    # the dual map goes from the target's algebra to the source's
    assert hom.dom.size == tgt_alg.size == 4
    assert hom.cod.size == src_alg.size == 2
    assert complete_homomorphism_failure(hom.mapping, hom.dom, hom.cod) is None
    # bottom and the atom containing a1 collapse to the source bottom,
    # the atom containing b1 and top go to the source top
    names = hom.dom.names
    by_name = {n: hom.mapping[i] for i, n in enumerate(names)}
    bot_img = hom.mapping[hom.dom.bot]
    top_img = hom.mapping[hom.dom.top]
    assert bot_img == hom.cod.bot
    assert top_img == hom.cod.top


def test_collapse_example_passes(m2_morphism):
    pm, _ = m2_morphism
    report = check_pmorphism(pm)
    assert report.passed, report.message
    assert is_surjective(pm)
    assert not is_injective(pm)


def test_rejected_example_fails_with_witness(bad_morphism):
    pm, _ = bad_morphism
    report = check_pmorphism(pm)
    assert not report.passed
    assert "duality" in report.message
    # the witness names the mismatched section values
    assert "a1" in report.message and "b1" in report.message


def test_identity_pmorphism_round_trip(frame_f1):
    pm = identity_pmorphism(frame_f1)
    assert check_pmorphism(pm).passed
    assert is_surjective(pm) and is_injective(pm)
    hom = dual_hom(pm)
    assert tuple(hom.mapping) == tuple(range(hom.dom.size))


def test_dual_then_dual_recovers_morphism(m1_morphism):
    hom = dual_hom(m1_morphism)
    back = dual_pmorphism(hom)
    assert back.source is m1_morphism.source
    assert back.target is m1_morphism.target
    assert back.s_pairs == m1_morphism.s_pairs
    assert back.t_pairs == m1_morphism.t_pairs


def _coproduct_frames():
    """Box frames of 1x1 up to 4x4 points, some with an empty N, boolean
    frames and compatible random frames over SIG_MIX."""
    rng = random.Random(57)
    for side in (1, 2, 3, 4):
        for density in (0.0, 0.5, 0.8):
            for _ in range(4):
                yield random_box_frame(rng, side, side, density)
    for k in (1, 2, 3):
        yield boolean_frame(rng, k, SIG_MIX.connectives)
    found = 0
    while found < 12:
        fr = random_frame(rng, SIG_MIX, 3)
        if check_compatibility(fr).passed:
            found += 1
            yield fr


def test_coproduct_pmorphisms_match_the_dual_maps():
    frames = list(_coproduct_frames())
    assert any(not fr.polarity.pairs for fr in frames)
    for a, b in zip(frames, frames[1:] + frames[:1]):
        if a.signature != b.signature:
            b = a
        for got, want in (
            (diagonal_surjection(a), diagonal_surjection_by_duality(a)),
            (component_embedding(a, b), component_embedding_by_duality(a, b)),
        ):
            (pm, cop), (oracle, oracle_cop) = got, want
            assert cop == oracle_cop
            assert (pm.source, pm.target) == (oracle.source, oracle.target)
            assert (pm.s_pairs, pm.t_pairs) == (oracle.s_pairs, oracle.t_pairs)


def test_dual_round_trip_on_generated_morphisms():
    rng = random.Random(17)
    for _ in range(10):
        fr = random_box_frame(rng)
        for make in (diagonal_surjection, component_embedding):
            if make is component_embedding:
                pm, _ = make(fr, random_box_frame(rng))
            else:
                pm, _ = make(fr)
            report = check_pmorphism(pm)
            assert report.passed, report.message
            hom = dual_hom(pm)
            assert complete_homomorphism_failure(
                hom.mapping, hom.dom, hom.cod
            ) is None
            back = dual_pmorphism(hom)
            assert back.s_pairs == pm.s_pairs
            assert back.t_pairs == pm.t_pairs


def test_surjection_dualizes_to_injection():
    rng = random.Random(23)
    fr = random_box_frame(rng)
    pm, _ = diagonal_surjection(fr)
    assert is_surjective(pm)
    hom = dual_hom(pm)
    assert len(set(hom.mapping)) == hom.dom.size  # injective dual map


def test_embedding_dualizes_to_surjection():
    rng = random.Random(29)
    f1, f2 = random_box_frame(rng), random_box_frame(rng)
    pm, _ = component_embedding(f1, f2)
    assert is_injective(pm)
    hom = dual_hom(pm)
    assert set(hom.mapping) == set(range(hom.cod.size))  # surjective dual map


def test_broken_morphism_detected(m1_morphism):
    from lekit import PMorphism

    # drop a required T pair: the section conditions must now fail
    pm = m1_morphism
    trimmed = PMorphism(
        pm.source, pm.target, pm.s_pairs, frozenset(sorted(pm.t_pairs)[:1])
    )
    assert not check_pmorphism(trimmed).passed


def test_pmorphism_reports_match_family_branches():
    # identities between frames on one polarity whose relations differ in
    # some connectives reach the relation conditions (p6 for F, p7 for G);
    # random S and T mostly fail earlier
    rng = random.Random(909)
    seen = set()
    for k in range(240):
        src = random_frame(rng, SIG_MIX, 4)
        pol = src.polarity
        if k % 3:
            relations = {
                c.name: random_relation(rng, pol, c) if rng.random() < 0.3 else src.relations[c.name]
                for c in SIG_MIX.connectives
            }
            tgt = Frame(pol, SIG_MIX, relations)
            pm = PMorphism(src, tgt, pol.pairs, {(u, w) for w, u in pol.pairs})
        else:
            tgt = random_frame(rng, SIG_MIX, 4)
            sp, tp = src.polarity, tgt.polarity
            s_pairs = {(w, u) for w in range(sp.nw) for u in range(tp.nu) if rng.random() < 0.5}
            t_pairs = {(u, w) for u in range(sp.nu) for w in range(tp.nw) if rng.random() < 0.5}
            pm = PMorphism(src, tgt, s_pairs, t_pairs)
        report = check_pmorphism(pm)
        assert report == pmorphism_report_by_family(pm)
        seen.add(report.condition)
    assert {None, "p2", "p6", "p7"} <= seen, seen


@pytest.mark.parametrize(
    "name, toggled, condition, points",
    [
        ("f", (1, 1, 2), "p6", "w1, u2"),  # F on W x U: tuple 5 of 9
        ("g", (0, 2, 1), "p7", "w2, u1"),  # G on W x U, its W from a "d" coordinate: tuple 7
        ("c", (2,), "p6", ""),  # nullary: its one tuple is ()
    ],
)
def test_relation_conditions_report_the_first_failing_tuple(name, toggled, condition, points):
    # the identity between two frames on one polarity that differ in one
    # tuple of one relation; every set is stable in this polarity, so the
    # first target tuple whose section differs is the one toggled
    src = boolean_frame(random.Random(17), 3, SIG_MIX.connectives)
    pol = src.polarity
    relations = dict(src.relations)
    rel = relations[name]
    relations[name] = Relation(rel.sorts, rel.sizes, rel.tuples ^ {toggled})
    tgt = Frame(pol, SIG_MIX, relations)
    pm = PMorphism(src, tgt, pol.pairs, {(u, w) for w, u in pol.pairs})
    report = check_pmorphism(pm)
    assert report == pmorphism_report_by_family(pm)
    assert report.condition == condition
    assert report.witness.startswith(f"connective {name!r} at ({points}): ")


def test_pmorphism_polarities_reuse_the_frames_names(m1_morphism):
    pm = m1_morphism
    sp, tp = pm.source.polarity, pm.target.polarity
    assert pm.S.w_ids is sp.w_ids and pm.S.u_ids is tp.u_ids
    assert pm.T.w_ids is sp.u_ids and pm.T.u_ids is tp.w_ids
    assert (pm.S.w_names, pm.S.u_names) == (sp.w_names, tp.u_names)
    assert (pm.T.w_names, pm.T.u_names) == (sp.u_names, tp.w_names)
    assert pm.S.pairs == pm.s_pairs and pm.T.pairs == pm.t_pairs
    for s_pairs, t_pairs, message in [
        ([(sp.nw, 0)], [], rf"S pair \({sp.nw}, 0\) out of range"),
        ([(0, -1)], [], r"S pair \(0, -1\) out of range"),
        ([], [(0, tp.nw)], rf"T pair \(0, {tp.nw}\) out of range"),
    ]:
        with pytest.raises(FormatError, match=message):
            PMorphism(pm.source, pm.target, s_pairs, t_pairs)


def test_injective_and_surjective_match_full_scans(m1_morphism, m2_morphism):
    # seeded valid p-morphisms: the golden ones, identities, diagonal
    # surjections and component embeddings, and the random pairs that pass
    rng = random.Random(31)
    pms = [m1_morphism, m2_morphism[0]]
    for _ in range(150):
        a, b = random_box_frame(rng, 3, 3), random_box_frame(rng, 3, 3)
        pms += [identity_pmorphism(a), diagonal_surjection(a)[0], component_embedding(a, b)[0],
                random_pmorphism(rng, a, b)]
    kinds = set()
    for pm in pms:
        report = check_pmorphism(pm)
        if not report.passed:
            continue
        want = (is_surjective_by_scan(pm), is_injective_by_scan(pm))
        assert (report.surjective, report.injective) == want
        assert (is_surjective(pm), is_injective(pm)) == want
        kinds.add(want)
    # (surjective, injective): both, onto only (not injective), one-to-one only
    assert kinds >= {(True, True), (True, False), (False, True)}
