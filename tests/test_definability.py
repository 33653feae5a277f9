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
from lekit.errors import FormatError
from lekit.frame import Frame, Relation, connective_sorts
from lekit.polarity import Polarity
from lekit.sampling import SIG_BOX, diagonal_surjection


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
    assert "verified surjective" in report.message or "fails the condition" in report.message


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


def test_falsify_report_serialization(frame_f1, frame_f2):
    report = falsify(
        "R-equals-N-complement", "coproduct", [frame_f1, frame_f2]
    )
    d = report.to_dict()
    assert d["falsified"] is True
    assert d["condition"] == "R-equals-N-complement"
    assert isinstance(d["details"], list) and d["details"]
