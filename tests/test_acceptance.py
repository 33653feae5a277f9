"""Acceptance gate: end-to-end criteria with explicit time budgets.

Each test prints one PASS/FAIL line (visible with -s or on failure) and
enforces its own time budget, so a slow regression fails loudly.
"""

import random
import time

from lekit import (
    Model,
    PMorphism,
    algebra_validates,
    build_complex_algebra,
    canonical_embedding,
    check_compatibility,
    check_compatibility_alt,
    check_pmorphism,
    coproduct,
    dual_hom,
    dual_pmorphism,
    enumerate_concepts,
    eval_formula,
    filter_ideal_extension,
    filter_ideal_frame,
    find_isomorphism,
    frame_validates,
    is_injective,
    is_surjective,
    load_frame,
    load_morphism,
    product_algebra,
    standard_translate,
    eval_fo,
)
from lekit.definability import falsify
from lekit.fol import Var
from lekit.frame import Frame, Polarity, Relation, connective_sorts
from lekit.sampling import (
    SIG_BOX,
    box_frame,
    box_frames,
    component_embedding,
    diagonal_surjection,
)
from lekit.syntax import And, BOT, Conn, Connective, Or, Prop, Signature, TOP

from conftest import (
    all_box_frames_2x2,
    complete_homomorphism_failure,
    golden_path,
    identity_pmorphism,
    random_box_frame,
    random_formula,
    random_sequent,
)


def _report(name, elapsed, budget):
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"[acceptance] {name}: {verdict} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_golden_examples():
    t0 = time.monotonic()
    f1 = load_frame(golden_path("coproduct_F1.json"))
    f2 = load_frame(golden_path("coproduct_F2.json"))

    # coproduct: incidence count and concept count
    cp = coproduct([f1, f2])
    assert len(cp.polarity.pairs) == 12
    assert len(enumerate_concepts(cp.polarity)) == 16

    # embedding example: PASS, injective, not surjective
    m1s = load_frame(golden_path("morphism1_F2.json"))
    m1t = load_frame(golden_path("morphism1_F1.json"))
    pm1 = load_morphism(golden_path("morphism1_ST.json"), m1s, m1t)
    rep = check_pmorphism(pm1)
    assert rep.passed, rep.message
    assert is_injective(pm1) and not is_surjective(pm1)
    hom = dual_hom(pm1)
    assert hom.dom.size == 4 and hom.cod.size == 2
    assert hom.mapping[hom.dom.bot] == hom.cod.bot
    assert hom.mapping[hom.dom.top] == hom.cod.top

    # collapse example: PASS, surjective, not injective
    m2t = load_frame(golden_path("morphism2_F2.json"))
    pm2 = load_morphism(golden_path("morphism2_ST.json"), f1, m2t)
    rep = check_pmorphism(pm2)
    assert rep.passed, rep.message
    assert is_surjective(pm2) and not is_injective(pm2)

    # rejected example: FAIL with the stated witness sets
    bad = load_morphism(golden_path("nonmorphism_ST.json"), f1, m1s)
    rep = check_pmorphism(bad)
    assert not rep.passed
    assert "duality" in rep.message
    assert "{a1, b1}" in rep.message and "{}" in rep.message

    # the three falsifier verdicts
    r = falsify("R-equals-N-complement", "coproduct", [f1, f2])
    assert r.falsified
    r = falsify("every-u-has-non-R-w", "generated-subframe", [], morphism=pm1)
    assert r.falsified
    r = falsify("R-complement-subset-N", "pmorphic-image", [], morphism=pm2)
    assert r.falsified

    _report("criterion 1 (golden examples)", time.monotonic() - t0, 1.0)


def test_criterion_2_bridge_equivalence():
    t0 = time.monotonic()
    rng = random.Random(101)
    pairs = 0
    while pairs < 200:
        fr = random_box_frame(rng, max_w=4, max_u=4)
        seq = random_sequent(rng, SIG_BOX, ("p", "q"), 3)
        fv = frame_validates(fr, seq)
        av = algebra_validates(build_complex_algebra(fr), seq)
        assert fv.valid == av, f"bridge mismatch on {seq}"
        pairs += 1
    _report("criterion 2 (frame/algebra bridge, 200 pairs)", time.monotonic() - t0, 30.0)


def test_criterion_3_standard_translation_faithfulness():
    """Faithfulness of the first order translation, depth <= 3, one prop.

    The depth-3 formula space over one proposition is astronomically
    redundant: formulas are built layer by layer and deduplicated by their
    semantic profile across every model (every compatible 2x2 frame, every
    valuation of p).  Every depth <= 3 formula is a connective applied to
    depth <= 2 subformulas, each profile-equal to a tested representative,
    and agreement is verified on the full translation/evaluation path for
    every generated candidate.
    """
    t0 = time.monotonic()
    frames = all_box_frames_2x2()
    assert len(frames) == 75
    models = [
        Model(fr, {"p": c})
        for fr in frames
        for c in enumerate_concepts(fr.polarity)
    ]
    assert len(models) == 237

    xv, yv = Var("W", "x"), Var("U", "y")

    def full_path_check(phi):
        stx = standard_translate(phi, SIG_BOX, "W")
        sty = standard_translate(phi, SIG_BOX, "U")
        for m in models:
            c = eval_formula(m, phi)
            for w in range(2):
                assert eval_fo(m, stx, {xv: w}) == bool(c.extent >> w & 1)
            for u in range(2):
                assert eval_fo(m, sty, {yv: u}) == bool(c.intent >> u & 1)

    def profile(phi):
        return tuple(
            (c.extent, c.intent) for c in (eval_formula(m, phi) for m in models)
        )

    reps = {}
    for phi in (Prop("p"), TOP, BOT):
        full_path_check(phi)
        reps.setdefault(profile(phi), phi)

    candidates_checked = 3
    for _depth in (1, 2, 3):
        prev = list(reps.values())
        layer = (
            [Conn("box", (a,)) for a in prev]
            + [And(a, b) for a in prev for b in prev]
            + [Or(a, b) for a in prev for b in prev]
        )
        for phi in layer:
            full_path_check(phi)
            candidates_checked += 1
            reps.setdefault(profile(phi), phi)

    # frozen census: 30 semantic equivalence classes reachable at depth 3
    assert len(reps) == 30
    assert candidates_checked == 332
    _report(
        "criterion 3 (translation faithfulness, depth <= 3)",
        time.monotonic() - t0,
        60.0,
    )


def _random_verified_pmorphisms(rng, count, max_alg=None):
    out = []
    while len(out) < count:
        kind = rng.randrange(3)
        if kind == 0:
            pm = identity_pmorphism(random_box_frame(rng))
        elif kind == 1:
            pm, _ = diagonal_surjection(random_box_frame(rng, max_w=2, max_u=2))
        else:
            pm, _ = component_embedding(
                random_box_frame(rng, max_w=2, max_u=2),
                random_box_frame(rng, max_w=2, max_u=2),
            )
        if max_alg is not None:
            if len(enumerate_concepts(pm.source.polarity)) > max_alg:
                continue
            if len(enumerate_concepts(pm.target.polarity)) > max_alg:
                continue
        assert check_pmorphism(pm).passed
        out.append(pm)
    return out


def test_criterion_4_duality_round_trips(m1_morphism, m2_morphism, frame_f1):
    t0 = time.monotonic()
    goldens = [m1_morphism, m2_morphism[0], identity_pmorphism(frame_f1)]
    rng = random.Random(211)
    for pm in goldens + _random_verified_pmorphisms(rng, 50):
        back = dual_pmorphism(dual_hom(pm))
        assert back.s_pairs == pm.s_pairs
        assert back.t_pairs == pm.t_pairs

    # homomorphism direction: h = dual_hom(dual_pmorphism(h)), algebras <= 8
    homs = 0
    for pm in _random_verified_pmorphisms(rng, 80, max_alg=8):
        h = dual_hom(pm)
        h2 = dual_hom(dual_pmorphism(h))
        assert tuple(h2.mapping) == tuple(h.mapping)
        homs += 1
        if homs == 50:
            break
    assert homs == 50
    _report("criterion 4 (duality round trips)", time.monotonic() - t0, 60.0)


def test_criterion_5_preservation_suite():
    t0 = time.monotonic()
    rng = random.Random(307)
    nonvacuous = [0, 0, 0, 0]
    # every compatible box frame up to 2x2 with its extension, each built once
    walked = [(fr, filter_ideal_extension(fr)) for fr in map(box_frame, box_frames(2, 2))]
    walked_checks = 0
    for trial in range(500):
        seq = random_sequent(rng, SIG_BOX, ("p", "q"), 3)

        # 1. surjective p-morphic images preserve validity
        fr = random_box_frame(rng, max_w=2, max_u=2)
        pm, doubled = diagonal_surjection(fr)
        if frame_validates(doubled, seq).valid:
            assert frame_validates(fr, seq).valid, f"image lost {seq}"
            nonvacuous[0] += 1

        # 2. generated subframes preserve validity
        f1 = random_box_frame(rng, max_w=2, max_u=2)
        f2 = random_box_frame(rng, max_w=2, max_u=2)
        pm, ambient = component_embedding(f1, f2)
        if frame_validates(ambient, seq).valid:
            assert frame_validates(f1, seq).valid, f"subframe lost {seq}"
            nonvacuous[1] += 1

        # 3. coproducts preserve joint validity of the components
        if frame_validates(f1, seq).valid and frame_validates(f2, seq).valid:
            assert frame_validates(ambient, seq).valid, f"coproduct lost {seq}"
            nonvacuous[2] += 1

        # 4. filter-ideal extensions preserve and reflect validity
        small = random_box_frame(rng, max_w=2, max_u=2)
        ext = filter_ideal_extension(small)
        assert (
            frame_validates(small, seq).valid
            == frame_validates(ext, seq).valid
        ), f"filter-ideal extension disagrees on {seq}"
        nonvacuous[3] += 1
        for fr, ext in walked if trial < 50 else ():
            assert frame_validates(fr, seq).valid == frame_validates(ext, seq).valid, (
                f"filter-ideal extension of {fr.to_dict()} disagrees on {seq}"
            )
            walked_checks += 1

    assert all(n > 0 for n in nonvacuous), nonvacuous
    assert (len(walked), walked_checks) == (92, 92 * 50)
    _report(
        f"criterion 5 (preservation, 500 trials, hits {nonvacuous}; "
        f"{walked_checks} walked filter-ideal checks)",
        time.monotonic() - t0,
        300.0,
    )


def test_criterion_6_canonical_extension_identity():
    t0 = time.monotonic()
    rng = random.Random(401)
    done = 0
    while done < 30:
        fr = random_box_frame(rng)
        alg = build_complex_algebra(fr)
        if alg.size > 8:
            continue
        fif = filter_ideal_frame(alg)
        fif_alg = build_complex_algebra(fif)
        iso = find_isomorphism(alg, fif_alg)
        assert iso is not None, "no isomorphism found"
        assert complete_homomorphism_failure(iso, alg, fif_alg) is None
        emb = canonical_embedding(alg, fif_alg)
        assert complete_homomorphism_failure(emb, alg, fif_alg) is None
        assert sorted(set(emb)) == list(range(fif_alg.size))
        done += 1
    _report(
        "criterion 6 (filter-ideal frame recovers the algebra, 30 cases)",
        time.monotonic() - t0,
        120.0,
    )


def test_criterion_7_compatibility_checker_equivalence():
    t0 = time.monotonic()
    signatures = [
        Signature((Connective("g1", "G", 1, ("1",)),)),
        Signature((Connective("f1", "F", 1, ("1",)),)),
        Signature((Connective("g2", "G", 2, ("1", "1")),)),
        Signature((Connective("f2", "F", 2, ("1", "d")),)),
    ]
    cells2 = [(w, u) for w in range(2) for u in range(2)]
    checked = 0
    for sig in signatures:
        conn = sig.connectives[0]
        sorts = connective_sorts(conn)
        sizes = tuple(2 for _ in sorts)
        n_cells = 1
        for s in sizes:
            n_cells *= 2
        all_tuples = [
            tuple((i >> k) & 1 for k in range(len(sorts)))
            for i in range(n_cells)
        ]
        for nmask in range(16):
            pol = Polarity(
                ["w0", "w1"],
                ["u0", "u1"],
                [c for i, c in enumerate(cells2) if nmask >> i & 1],
            )
            for rmask in range(1 << len(all_tuples)):
                tuples = {
                    t for i, t in enumerate(all_tuples) if rmask >> i & 1
                }
                fr = Frame(pol, sig, {conn.name: Relation(sorts, sizes, tuples)})
                a = check_compatibility(fr).passed
                b = check_compatibility_alt(fr).passed
                assert a == b, f"checkers disagree: {sig} N={nmask} R={tuples}"
                checked += 1
    assert checked == 2 * 16 * 16 + 2 * 16 * 256
    _report(
        f"criterion 7 (checker equivalence, {checked} frames)",
        time.monotonic() - t0,
        120.0,
    )


def test_criterion_8_coproduct_algebra_law():
    t0 = time.monotonic()
    rng = random.Random(503)
    for _ in range(20):
        f1 = random_box_frame(rng)
        f2 = random_box_frame(rng)
        cp = coproduct([f1, f2])
        cp_alg = build_complex_algebra(cp)
        prod = product_algebra(
            build_complex_algebra(f1), build_complex_algebra(f2)
        )
        iso = find_isomorphism(cp_alg, prod)
        assert iso is not None, "no isomorphism found"
        assert complete_homomorphism_failure(iso, cp_alg, prod) is None
    _report("criterion 8 (coproduct algebra law, 20 pairs)", time.monotonic() - t0, 120.0)
