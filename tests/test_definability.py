"""First order frame conditions and closure falsification."""

import random
from itertools import islice, product

import pytest

from lekit import definability
from lekit.constructions import coproduct
from lekit.definability import (
    CONDITIONS,
    CONSTRUCTIONS,
    check_condition,
    falsify,
    search_falsification,
)
from lekit.errors import CapExceededError, FormatError
from lekit.frame import Frame, Relation, connective_sorts
from lekit.polarity import Polarity
from lekit.sampling import (
    SIG_BOX,
    box_frame,
    box_frames,
    component_embedding,
    diagonal_surjection,
    stabilize_box_relation,
)

from conftest import (
    box_frames_by_brute_force,
    draw_box_key,
    falsify_by_branches,
    identity_pmorphism,
    random_box_frame,
    random_box_frame_by_polarity,
    random_pmorphism,
    random_polarity,
    search_falsification_by_branches,
    stabilize_box_relation_by_passes,
    walked_candidates,
)


def make_frame(nw, nu, n_pairs, r_tuples):
    pol = Polarity(
        [f"w{i}" for i in range(nw)], [f"u{i}" for i in range(nu)], n_pairs
    )
    sorts = connective_sorts(SIG_BOX.connectives[0])
    return Frame(pol, SIG_BOX, {"box": Relation(sorts, (nw, nu), set(r_tuples))})


def test_condition_names_are_stable():
    assert set(CONDITIONS) == {
        "R-equals-N-complement",
        "every-u-has-non-R-w",
        "R-complement-subset-N",
    }
    assert CONSTRUCTIONS == (
        "coproduct",
        "pmorphic-image",
        "generated-subframe",
        "filter-ideal",
    )


def test_conditions_by_hand():
    # N = diag, R = anti-diag on 2x2: R is exactly the complement of N
    fr = make_frame(2, 2, [(0, 0), (1, 1)], [(0, 1), (1, 0)])
    assert check_condition("R-equals-N-complement", fr)[0]
    assert check_condition("every-u-has-non-R-w", fr)[0]
    assert check_condition("R-complement-subset-N", fr)[0]
    # total R: no u has a non-R w
    total = make_frame(1, 1, [(0, 0)], [(0, 0)])
    holds, witness = check_condition("every-u-has-non-R-w", total)
    assert not holds
    assert witness


def test_unknown_condition_rejected():
    fr = make_frame(1, 1, [(0, 0)], [(0, 0)])
    with pytest.raises(FormatError):
        check_condition("no-such-condition", fr)
    with pytest.raises(FormatError):
        falsify("R-equals-N-complement", "no-such-construction", [fr])


def test_coproduct_breaks_complement_condition(frame_f1, frame_f2):
    # both components satisfy R = complement of N, the coproduct cannot:
    # mixed pairs land in both R and N
    report = falsify(
        "R-equals-N-complement", "coproduct", [frame_f1, frame_f2]
    )
    assert report.falsified
    assert "coproduct fails" in report.message


def test_coproduct_not_falsified_when_component_fails(frame_f1):
    total = make_frame(1, 1, [(0, 0)], [(0, 0)])
    report = falsify("R-equals-N-complement", "coproduct", [frame_f1, total])
    assert not report.falsified


def test_pmorphic_image_path_runs(frame_f1):
    pm, cop = diagonal_surjection(frame_f1)
    report = falsify(
        "R-equals-N-complement", "pmorphic-image", [], morphism=pm
    )
    # source is the doubled frame: mixed pairs already break the condition
    assert not report.falsified
    assert report.details == [
        "verified surjective p-morphism",
        "the source fails the condition: (1:a1, 2:x1) is in both of R and N",
    ]


def test_search_falsification_finds_coproduct_witness():
    found = search_falsification(
        "R-equals-N-complement", "coproduct", max_size=2, tries=300
    )
    assert found is not None
    assert found.falsified


@pytest.mark.parametrize("size", [0, -3])
def test_search_falsification_rejects_max_size_below_one(size):
    with pytest.raises(FormatError, match="max_size"):
        search_falsification(
            "R-equals-N-complement", "coproduct", max_size=size
        )


def test_search_falsification_bounds_max_size_by_the_cap():
    # 2**16 concepts fit the default cap, 2**17 do not
    with pytest.raises(CapExceededError, match=r"--max-size 17 walks frames of up to 2\*\*17"):
        search_falsification("R-equals-N-complement", "coproduct", max_size=17)
    found = search_falsification(
        "R-equals-N-complement", "coproduct", max_size=17, tries=1, cap=1 << 17
    )
    assert found is None or found.falsified


def test_falsify_report_serialization(frame_f1, frame_f2):
    report = falsify(
        "R-equals-N-complement", "coproduct", [frame_f1, frame_f2]
    )
    d = report.to_dict()
    assert d["falsified"] is True
    assert d["condition"] == "R-equals-N-complement"
    assert isinstance(d["details"], list) and d["details"]


@pytest.mark.parametrize("count", [0, 2])
def test_filter_ideal_needs_exactly_one_frame(frame_f1, count):
    with pytest.raises(FormatError, match=f"exactly one frame, got {count}"):
        falsify("R-equals-N-complement", "filter-ideal", [frame_f1] * count)


# the p-morphism searches enumerate nothing, so cap=0 has nothing to refuse
# there: tests/test_enumerations.py counts their enumerations instead
@pytest.mark.parametrize("construction", ["filter-ideal"])
def test_search_enumerates_under_its_cap(construction):
    with pytest.raises(CapExceededError):
        search_falsification(
            "R-equals-N-complement", construction, max_size=2, cap=0
        )


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).to_dict()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _branch(outcome):
    """The exception raised, or the kind of the report's last detail line."""
    if isinstance(outcome, tuple):
        return outcome[0]
    last = outcome["details"][-1]
    return next(k for k in ("not surjective", "not injective", "fails the condition",
                            "also satisfies", "fails it") if k in last)


def _drawn_pmorphism(rng, a, b):
    """An identity, a diagonal surjection, a component embedding, or (mostly
    not a p-morphism) random S and T pairs from a to b."""
    pick = rng.random()
    if pick < 0.2:
        return identity_pmorphism(a)
    if pick < 0.4:
        return diagonal_surjection(a)[0]
    if pick < 0.6:
        return component_embedding(a, b)[0]
    return random_pmorphism(rng, a, b)


def test_falsify_matches_the_branch_oracle(m1_morphism, m2_morphism, bad_morphism):
    rng = random.Random(5)
    witnesses = [(m1_morphism, None, None), (m2_morphism[0], None, None),
                 (bad_morphism[0], None, None)]
    for _ in range(200):
        a, b = random_box_frame(rng, 2, 2), random_box_frame(rng, 2, 2)
        witnesses.append((_drawn_pmorphism(rng, a, b), a, b))
    seen = set()
    for pm, a, b in witnesses:
        cases = [(con, [], pm) for con in ("pmorphic-image", "generated-subframe")]
        if a is not None:
            cases += [("coproduct", [a, b], None), ("coproduct", [a], None),
                      ("filter-ideal", [a], None)]
        for cond in sorted(CONDITIONS):
            for con, frames, morphism in cases:
                got = _outcome(falsify, cond, con, frames, morphism=morphism)
                assert got == _outcome(falsify_by_branches, cond, con, frames, morphism=morphism)
                seen.add((con, _branch(got)))
    reports = {"fails the condition", "also satisfies", "fails it"}
    morphism_ends = reports | {"InvalidPMorphismError"}
    assert seen >= {("coproduct", k) for k in reports}
    assert seen >= {("filter-ideal", k) for k in ("fails the condition", "also satisfies")}
    assert seen >= {("pmorphic-image", k) for k in morphism_ends | {"not surjective"}}
    assert seen >= {("generated-subframe", k) for k in morphism_ends | {"not injective"}}
    for con in ("pmorphic-image", "generated-subframe", "no-such-construction"):
        assert _outcome(falsify, "R-equals-N-complement", con, []) == _outcome(
            falsify_by_branches, "R-equals-N-complement", con, []
        )


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_search_matches_the_branch_oracle(construction):
    hits = complete = 0
    for cond in sorted(CONDITIONS):
        for size in (1, 2, 3):
            for tries in (7, 60):
                got = search_falsification(cond, construction, size, tries=tries)
                want = search_falsification_by_branches(cond, construction, size, tries=tries)
                assert (got.to_dict(), got.message) == (want.to_dict(), want.message)
                hits += got.falsified
                complete += not got.falsified and got.complete
    if construction == "coproduct":
        assert hits >= 3
    assert complete  # some walk judged every candidate up to its size


def test_a_condition_holds_on_a_coproduct_only_when_on_every_component():
    # why every p-morphism search misses: the frame that must satisfy the
    # condition is a coproduct (fr + fr, f1 + f2) and a component must fail
    # it.  The coproduct's cross pairs are in R and in N, so the other two
    # conditions hold on it exactly when on both components, and
    # R-equals-N-complement never does
    frames = [box_frame(key) for key in box_frames(2, 2)]
    holds = {cond: [check_condition(cond, fr)[0] for fr in frames] for cond in CONDITIONS}
    pairs = list(product(range(len(frames)), repeat=2))
    assert len(pairs) == 8464
    for i, j in pairs:
        cop = coproduct([frames[i], frames[j]])
        for cond, on in holds.items():
            want = on[i] and on[j] and cond != "R-equals-N-complement"
            assert check_condition(cond, cop)[0] == want, (cond, i, j)


@pytest.mark.parametrize("density, rel_density", [(0.5, 0.3), (0.2, 0.7), (0.8, 0.1), (0.0, 1.0)])
def test_draws_match_the_polarity_oracle(density, rel_density):
    # the same frames from the same rng calls, one draw or many per rng
    for size in range(1, 7):
        for seed in range(3):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for _ in range(6):
                key = draw_box_key(got_rng, size, 7 - size, density, rel_density)
                want = random_box_frame_by_polarity(want_rng, size, 7 - size, density, rel_density)
                assert box_frame(key) == want
                assert got_rng.getstate() == want_rng.getstate()
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for _ in range(3):
                got = random_box_frame(got_rng, size, size, density, rel_density)
                assert got == random_box_frame_by_polarity(want_rng, size, size, density, rel_density)
                assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("density", [0.0, 0.2, 0.5, 0.8, 1.0])
def test_stabilized_relation_matches_the_pass_oracle(density):
    # the least relation holding the seed whose rows are intents and whose
    # columns are extents is unique, so the pairs must agree exactly
    rng = random.Random(f"stabilize/{density}")
    for nw in range(7):
        for nu in range(7):
            for rel_density in (0.0, 0.1, 0.3, 0.6, 1.0):
                pol = random_polarity(rng, nw, nu, density)
                seed = [(w, u) for w in range(nw) for u in range(nu) if rng.random() < rel_density]
                want = stabilize_box_relation_by_passes(pol, seed)
                assert stabilize_box_relation(pol, seed) == want, (pol.pairs, seed)


def test_the_benchmarked_search_matches_the_branch_oracle():
    # bench/workloads.py runs README's search: coproduct, --max-size 2
    want = search_falsification_by_branches("R-equals-N-complement", "coproduct", 2, tries=200)
    assert want.falsified
    got = search_falsification("R-equals-N-complement", "coproduct", 2, tries=200)
    assert (got.to_dict(), got.message) == (want.to_dict(), want.message)


def test_box_frames_match_the_brute_force_oracle():
    # every (N, R) pair that check_compatibility passes, in the same order,
    # and each key's frame is the oracle's: its relation is already stable
    for nw, nu in product(range(1, 7), repeat=2):
        if nw * nu <= 6:
            want = list(box_frames_by_brute_force(nw, nu))
            assert list(box_frames(nw, nu)) == [key for key, _ in want], (nw, nu)
            assert all(box_frame(key) == fr for key, fr in want)
    small, large = list(box_frames(2, 2)), list(box_frames(3, 3))
    assert (len(small), len(large)) == (92, 15955)
    assert large[: len(small)] == small  # every frame up to 2x2 comes first
    assert len(set(large)) == len(large)


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_search_builds_and_judges_each_draw_once_per_call(construction, monkeypatch):
    cond = "every-u-has-non-R-w"  # holds on a coproduct iff on every component: no hit
    built, judged, joined = [], [], []  # joined: the frames of each construction built
    build, judge = definability.box_frame, definability.check_condition
    join, extend = definability.coproduct, definability.filter_ideal_extension
    surject, embed = definability.diagonal_surjection, definability.component_embedding
    spies = {
        "box_frame": lambda key: built.append((key, build(key))) or built[-1][1],
        "check_condition": lambda c, fr: judged.append(fr) or judge(c, fr),
        "coproduct": lambda frames: joined.append(frames) or join(frames),
        "filter_ideal_extension": lambda fr, cap: joined.append((fr,)) or extend(fr, cap),
        "diagonal_surjection": lambda fr: joined.append((fr,)) or surject(fr),
        "component_embedding": lambda a, b: joined.append((a, b)) or embed(a, b),
    }
    for name, spy in spies.items():
        monkeypatch.setattr(definability, name, spy)
    counts = []
    for _ in range(2):
        built.clear(), judged.clear(), joined.clear()
        miss = search_falsification(cond, construction, 2)
        # all 92 frames up to 2x2 under filter-ideal and pmorphic-image, else the bound
        bound = (92, True) if construction in ("filter-ideal", "pmorphic-image") else (200, False)
        assert not miss.falsified and (miss.candidates, miss.complete) == bound
        assert len(set(map(id, judged))) == len(judged)  # no frame judged twice
        counts.append((len(built), len(judged), len(joined)))
    assert counts[0] == counts[1]  # nothing built or judged in one call serves the next
    monkeypatch.undo()
    # a prefix of the walk, each frame built once, and every construction
    # built of walked frames: one per candidate that its frames do not rule
    # out (a coproduct's frames all hold; any other's first frame must fail)
    keys = [key for key, _ in built]
    assert keys == list(islice(box_frames(2, 2), len(keys)))
    walked = {id(fr) for _, fr in built}
    assert all(id(fr) in walked for frames in joined for fr in frames)
    want = list(islice(walked_candidates(cond, construction, 2), miss.candidates))
    if construction != "coproduct":
        want = [frames for frames in want if not check_condition(cond, frames[0])[0]]
    assert [list(frames) for frames in joined] == want
    pairs = [tuple(map(id, frames)) for frames in joined]
    assert len(set(pairs)) == len(pairs)  # no candidate built twice
