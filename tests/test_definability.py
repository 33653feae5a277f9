"""First order frame conditions and closure falsification."""

import random

import pytest

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
from lekit.sampling import SIG_BOX, component_embedding, diagonal_surjection, random_box_frame

from conftest import (
    falsify_by_branches,
    identity_pmorphism,
    random_pmorphism,
    search_falsification_by_branches,
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
    rng = random.Random(71)
    found = search_falsification(
        "R-equals-N-complement", "coproduct", rng, max_size=2, tries=300
    )
    assert found is not None
    assert found.falsified


@pytest.mark.parametrize("size", [0, -3])
def test_search_falsification_rejects_max_size_below_one(size):
    with pytest.raises(FormatError, match="max_size"):
        search_falsification(
            "R-equals-N-complement", "coproduct", random.Random(1), max_size=size
        )


def test_search_falsification_bounds_max_size_by_the_cap():
    # 2**16 concepts fit the default cap, 2**17 do not
    with pytest.raises(CapExceededError, match=r"--max-size 17 draws frames of up to 2\*\*17"):
        search_falsification("R-equals-N-complement", "coproduct", random.Random(1), max_size=17)
    found = search_falsification(
        "R-equals-N-complement", "coproduct", random.Random(1), max_size=17, tries=1, cap=1 << 17
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
            "R-equals-N-complement", construction, random.Random(1), max_size=2, cap=0
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
    hits = 0
    for cond in sorted(CONDITIONS):
        for size in (1, 2, 3):
            for seed in range(3):
                got = search_falsification(cond, construction, random.Random(seed), size, tries=60)
                want = search_falsification_by_branches(
                    cond, construction, random.Random(seed), size, tries=60
                )
                assert (got and got.to_dict()) == (want and want.to_dict())
                hits += got is not None
    if construction == "coproduct":
        assert hits >= 3
