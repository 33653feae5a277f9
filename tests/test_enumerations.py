"""How many concept enumerations and compatibility checks each question
costs, counted per polarity and per frame."""

import random
import shlex
import sys
from collections import Counter
from pathlib import Path

import pytest

from lekit import CapExceededError, dual_hom, dual_pmorphism, frame, load_frame, polarity
from lekit.cli import main
from lekit.definability import falsify, search_falsification
from lekit.sampling import component_embedding, diagonal_surjection

from conftest import golden_path, identity_pmorphism, random_box_frame

ROOT = Path(__file__).resolve().parent.parent


def counted(monkeypatch, home, name):
    """The first argument of every call of home.<name>, in call order.

    Every lekit module that imported the function gets the counting
    wrapper, so no caller is missed.
    """
    calls = []
    original = getattr(home, name)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "lekit" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def enumerated(monkeypatch):
    """The polarity of every concept enumeration, in call order: every one,
    enumerate_concepts included, goes through concept_pairs."""
    return counted(monkeypatch, polarity, "concept_pairs")


@pytest.fixture
def checked(monkeypatch):
    """The frame of every check_compatibility call, in call order."""
    return counted(monkeypatch, frame, "check_compatibility")


def readme_commands():
    """The lekit command lines of README's CLI section, continuations joined."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in argvs if argv and argv[0] == "lekit"]


def per_argument(calls):
    return sorted(Counter(map(id, calls)).values())


def run(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = [str(tmp_path / arg) if arg.endswith(".json") and "/" not in arg else arg for arg in argv]
    assert main(argv) in (0, 1)


def test_readme_lists_the_commands():
    commands = {argv[0] for argv in readme_commands()}
    assert commands == {
        "check", "concepts", "valid", "coproduct", "pmorphism", "filter-ideal",
        "translate", "falsify",
    }


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_enumerate_each_polarity_at_most_once(
    argv, enumerated, tmp_path, monkeypatch, capsys
):
    run(argv, tmp_path, monkeypatch)
    assert per_argument(enumerated) in ([], [1])
    if argv[0] == "pmorphism":
        assert len(enumerated) == 1  # the target, for the diagnostic and both kinds


FALSIFY_FILTER_IDEAL = [
    "falsify", "golden/coproduct_F1.json",
    "--condition", "R-equals-N-complement", "--construction", "filter-ideal",
]


@pytest.mark.parametrize(
    "argv", readme_commands() + [FALSIFY_FILTER_IDEAL], ids=" ".join
)
def test_commands_check_each_frame_at_most_once(argv, checked, tmp_path, monkeypatch, capsys):
    run(argv, tmp_path, monkeypatch)
    assert set(per_argument(checked)) <= {1}
    if argv[0] in ("valid", "filter-ideal"):
        assert len(checked) == 1


@pytest.mark.parametrize(
    "witness",
    [
        ["coproduct_F1.json", "morphism2_F2.json", "morphism2_ST.json", "pmorphic-image"],
        ["morphism1_F2.json", "morphism1_F1.json", "morphism1_ST.json", "generated-subframe"],
    ],
    ids=["pmorphic-image", "generated-subframe"],
)
def test_falsify_on_a_morphism_enumerates_the_target_once(
    witness, enumerated, tmp_path, monkeypatch, capsys
):
    src, tgt, st, construction = witness
    argv = ["falsify", str(golden_path(src)), str(golden_path(tgt)),
            "--morphism", str(golden_path(st)),
            "--condition", "R-equals-N-complement", "--construction", construction]
    run(argv, tmp_path, monkeypatch)
    assert len(enumerated) == 1


def test_dual_hom_enumerates_each_side_once(m1_morphism, enumerated):
    dual_hom(m1_morphism)
    pols = {id(m1_morphism.source.polarity), id(m1_morphism.target.polarity)}
    assert set(map(id, enumerated)) == pols
    assert per_argument(enumerated) == [1, 1]


def test_dual_hom_of_an_endomorphism_builds_one_algebra(enumerated):
    pm = identity_pmorphism(load_frame(golden_path("coproduct_F1.json")))
    hom = dual_hom(pm)
    assert hom.dom is hom.cod
    assert per_argument(enumerated) == [1]
    back = dual_pmorphism(hom)
    assert (back.s_pairs, back.t_pairs) == (pm.s_pairs, pm.t_pairs)


def test_coproduct_pmorphisms_enumerate_nothing(enumerated):
    rng = random.Random(3)
    for _ in range(20):
        f1, f2 = random_box_frame(rng), random_box_frame(rng)
        diagonal_surjection(f1)
        component_embedding(f1, f2)
    assert enumerated == []


@pytest.mark.parametrize("construction", ["pmorphic-image", "generated-subframe"])
def test_search_on_drawn_pmorphisms_enumerates_nothing(construction, enumerated):
    # the walk's p-morphisms are read off N and no candidate is a hit, so
    # nothing reaches falsify's p-morphism check; 4 = 2**2 is the least cap
    # that admits max_size 2
    for cond in ("R-equals-N-complement", "every-u-has-non-R-w", "R-complement-subset-N"):
        found = search_falsification(cond, construction, max_size=2, cap=4)
        assert not found.falsified
    assert enumerated == []


@pytest.mark.parametrize("construction", ["pmorphic-image", "generated-subframe"])
def test_falsify_on_a_drawn_pmorphism_enumerates_under_its_cap(construction):
    fr = load_frame(golden_path("coproduct_F1.json"))
    if construction == "pmorphic-image":
        pm, _ = diagonal_surjection(fr)
    else:
        pm, _ = component_embedding(fr, fr)
    with pytest.raises(CapExceededError):
        falsify("R-equals-N-complement", construction, [], morphism=pm, cap=0)
