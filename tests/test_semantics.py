"""Formula evaluation, satisfaction, and sequent validity."""

import random

import pytest

from lekit import (
    And,
    Conn,
    Connective,
    IncompatibleFrameError,
    Model,
    Or,
    Sequent,
    algebra_validates,
    build_complex_algebra,
    cosatisfies,
    cosatisfies_recursive,
    enumerate_concepts,
    eval_formula,
    frame_validates,
    load_frame,
    model_validates,
    parse_formula,
    parse_sequent,
    satisfies,
    satisfies_recursive,
)
from lekit.constructions import product_algebra
from lekit.sampling import (
    SIG_BOX,
    random_box_frame,
    random_formula,
    random_sequent,
)

from conftest import (
    GOLDEN,
    PROPS,
    SIG_MIX,
    algebra_validates_by_walk,
    all_box_frames_2x2,
    boolean_frame,
    frame_validates_by_models,
    random_frame,
)


def swap_model(frame_f1):
    concepts = enumerate_concepts(frame_f1.polarity)
    # the atom with extent {a1}
    a1 = frame_f1.polarity.w_index("a1")
    atom = next(c for c in concepts if c.extent == 1 << a1)
    return Model(frame_f1, {"p": atom})


def test_eval_atoms_and_lattice_ops(frame_f1):
    m = swap_model(frame_f1)
    top = eval_formula(m, parse_formula("top", SIG_BOX))
    bot = eval_formula(m, parse_formula("bot", SIG_BOX))
    assert top.extent == frame_f1.polarity.full("W")
    assert bot.intent == frame_f1.polarity.full("U")
    p = eval_formula(m, parse_formula("p", SIG_BOX))
    assert p == m.valuation["p"]
    meet = eval_formula(m, parse_formula(r"p /\ bot", SIG_BOX))
    assert meet.extent == p.extent & bot.extent
    join = eval_formula(m, parse_formula(r"p \/ top", SIG_BOX))
    assert join.intent == p.intent & top.intent


def test_box_swaps_atoms(frame_f1):
    m = swap_model(frame_f1)
    p = eval_formula(m, parse_formula("p", SIG_BOX))
    bp = eval_formula(m, parse_formula("box p", SIG_BOX))
    bbp = eval_formula(m, parse_formula("box box p", SIG_BOX))
    b1 = frame_f1.polarity.w_index("b1")
    assert bp.extent == 1 << b1
    assert bbp == p


def test_satisfaction_is_extent_membership(frame_f1):
    m = swap_model(frame_f1)
    phi = parse_formula("box p", SIG_BOX)
    c = eval_formula(m, phi)
    for w in range(frame_f1.polarity.nw):
        assert satisfies(m, w, phi) == bool(c.extent >> w & 1)
    for u in range(frame_f1.polarity.nu):
        assert cosatisfies(m, u, phi) == bool(c.intent >> u & 1)
    # names are accepted as points
    assert satisfies(m, "b1", phi)


def test_recursive_clauses_agree_with_algebraic_evaluation():
    rng = random.Random(21)
    checked = 0
    for _ in range(40):
        fr = random_box_frame(rng)
        concepts = enumerate_concepts(fr.polarity)
        val = {"p": rng.choice(concepts), "q": rng.choice(concepts)}
        m = Model(fr, val)
        phi = random_formula(rng, SIG_BOX, ("p", "q"), 3)
        c = eval_formula(m, phi)
        for w in range(fr.polarity.nw):
            assert satisfies_recursive(m, w, phi) == bool(c.extent >> w & 1)
            checked += 1
        for u in range(fr.polarity.nu):
            assert cosatisfies_recursive(m, u, phi) == bool(c.intent >> u & 1)
            checked += 1
    assert checked > 100


def test_model_validates(frame_f1):
    m = swap_model(frame_f1)
    assert model_validates(m, parse_sequent("box box p |- p", SIG_BOX))
    assert model_validates(m, parse_sequent("bot |- p", SIG_BOX))
    assert not model_validates(m, parse_sequent("top |- p", SIG_BOX))


def test_frame_validity_and_counterexample(frame_f1):
    verdict = frame_validates(frame_f1, parse_sequent("box box p |- p", SIG_BOX))
    assert verdict.valid
    verdict = frame_validates(frame_f1, parse_sequent("box p |- p", SIG_BOX))
    assert not verdict.valid
    assert verdict.counter_valuation is not None
    # the counterexample really is one
    m = Model(frame_f1, verdict.counter_valuation)
    assert not model_validates(m, parse_sequent("box p |- p", SIG_BOX))


def test_frame_validity_agrees_with_algebra_validity():
    rng = random.Random(5)
    agree = 0
    for _ in range(40):
        fr = random_box_frame(rng)
        alg = build_complex_algebra(fr)
        seq = random_sequent(rng, SIG_BOX, ("p", "q"), 2)
        fv = frame_validates(fr, seq)
        av = algebra_validates(alg, seq)
        assert fv.valid == av
        agree += 1
    assert agree == 40


def test_lattice_sequents_valid_everywhere():
    laws = [
        r"p /\ q |- p",
        r"p |- p \/ q",
        r"p /\ (q \/ r) |- p",
        "bot |- p",
        "p |- top",
    ]
    for fr in all_box_frames_2x2()[:20]:
        for law in laws:
            assert frame_validates(fr, parse_sequent(law, SIG_BOX)).valid


def test_box_monotone_rule_valid():
    # box preserves meets, so box(p /\ q) |- box p holds in every frame
    seq = parse_sequent(r"box(p /\ q) |- box p", SIG_BOX)
    for fr in all_box_frames_2x2()[:30]:
        assert frame_validates(fr, seq).valid


def test_valuation_count_reported(frame_f1):
    verdict = frame_validates(frame_f1, parse_sequent("p |- top", SIG_BOX))
    assert verdict.valid
    # 4 concepts, 1 proposition
    assert verdict.valuations_checked == 4


def _shared_sequent(rng, sig, props, depth):
    """A sequent in which one drawn subformula occurs several times."""
    a = random_formula(rng, sig, props, depth)
    b = random_formula(rng, sig, props, depth)
    lhs = rng.choice([And(a, Conn("box", (a,))), And(b, a), Conn("f", (a, a))])
    rhs = rng.choice([Or(a, b), Conn("g", (b, And(a, b))), Conn("dia", (a,))])
    return Sequent(lhs, rhs)


def _validity_cases():
    rng = random.Random(71)
    for i in range(500):
        nprops = i % 4
        props = PROPS[:nprops]
        fr = random_frame(rng, SIG_MIX, 4 if nprops < 3 else 3)
        if i % 5 == 4:
            seq = _shared_sequent(rng, SIG_MIX, props, 2)
        else:
            seq = random_sequent(rng, SIG_MIX, props, 3)
        yield fr, seq
    for fr in all_box_frames_2x2()[::5]:
        for text in ("top |- bot", "bot |- box bot", r"box top /\ p |- box(p \/ q)"):
            yield fr, parse_sequent(text, SIG_BOX)


def test_frame_program_matches_model_oracle():
    seen = {"valid": 0, "invalid": 0, "leaves lattice": 0, "constants only": 0}
    for fr, seq in _validity_cases():
        verdict = frame_validates(fr, seq)
        valid, counter, _ = want = frame_validates_by_models(fr, seq)
        got = (verdict.valid, verdict.counter_valuation, verdict.valuations_checked)
        assert got == want, seq
        seen["valid" if valid else "invalid"] += 1
        seen["constants only"] += not counter and not valid
        try:
            build_complex_algebra(fr, check=False)
        except IncompatibleFrameError:
            seen["leaves lattice"] += 1
    assert min(seen.values()) >= 10, seen


def _algebras():
    rng = random.Random(73)
    for _ in range(15):
        yield build_complex_algebra(random_box_frame(rng, 4, 4))
    for k in (2, 3):
        for _ in range(5):
            conns = [
                Connective("f", "F", 2, tuple(rng.choice("1d") for _ in range(2))),
                Connective("g", "G", 2, tuple(rng.choice("1d") for _ in range(2))),
                Connective("box", rng.choice("FG"), 1, (rng.choice("1d"),)),
            ]
            yield build_complex_algebra(boolean_frame(rng, k, conns), check=False)
    for _ in range(5):
        a = build_complex_algebra(random_box_frame(rng, 3, 3))
        b = build_complex_algebra(random_box_frame(rng, 3, 3))
        yield product_algebra(a, b)
    for path in sorted(GOLDEN.glob("*.json")):
        if path.name.startswith(("coproduct", "morphism")) and "ST" not in path.name:
            yield build_complex_algebra(load_frame(path))


def test_algebra_program_matches_tree_walk():
    rng = random.Random(79)
    verdicts = set()
    for alg in _algebras():
        sig = alg.signature
        for i in range(12):
            props = PROPS[: i % 4]
            seq = random_sequent(rng, sig, props, 3 if len(props) < 3 else 2)
            want = algebra_validates_by_walk(alg, seq)
            assert algebra_validates(alg, seq) == want, seq
            verdicts.add(want)
    assert verdicts == {True, False}
