"""Formula evaluation, satisfaction, and sequent validity."""

import gc
import io
import random
import tokenize
import weakref

import pytest

from lekit import (
    And,
    Bot,
    Conn,
    Connective,
    Frame,
    IncompatibleFrameError,
    Model,
    Or,
    Polarity,
    Prop,
    Sequent,
    Signature,
    SignatureError,
    Top,
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
    props_of,
    satisfies,
    satisfies_recursive,
    validate_formula,
)
from lekit import emit, semantics
from lekit.constructions import product_algebra
from lekit.frame import Relation, connective_sorts
from lekit.sampling import SIG_BOX, random_box_frame

from conftest import (
    GOLDEN,
    PROPS,
    SIG_MIX,
    algebra_validates_by_walk,
    all_box_frames_2x2,
    boolean_frame,
    frame_validates_by_models,
    random_formula,
    random_frame,
    random_sequent,
    renamed,
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


@pytest.fixture(params=["generated", "plain"])
def path(request, monkeypatch):
    """Every validity check through generated code, or through the plain loop."""
    monkeypatch.setattr(semantics, "PLAIN_WORK", -1 if request.param == "generated" else 10**9)
    return request.param


def test_both_paths_match_the_oracles(path):
    test_frame_program_matches_model_oracle()
    test_algebra_program_matches_tree_walk()


def test_small_checks_compile_nothing():
    fr = all_box_frames_2x2()[7]
    alg = build_complex_algebra(fr)
    small = parse_sequent(r"box (p /\ q) |- box p \/ q", SIG_BOX)
    emit.compiled.cache_clear()
    frame_validates(fr, small)
    algebra_validates(alg, small)
    assert emit.compiled.cache_info().misses == 0
    # past PLAIN_WORK valuations times slots the shape is compiled, once per kind
    slots = len(semantics._Program(small, SIG_BOX).nodes)
    k = 1
    while 4**k * slots <= semantics.PLAIN_WORK:
        k += 1
    frame = boolean_frame(random.Random(131), k, SIG_BOX.connectives)
    big = build_complex_algebra(frame, check=False)
    assert big.size == 2**k
    for _ in range(2):
        algebra_validates(big, small)
    assert emit.compiled.cache_info().misses == 1


def _verdict(frame, seq):
    v = frame_validates(frame, seq)
    return v.valid, v.counter_valuation, v.valuations_checked


def _program_fns(kind, seq, sig):
    program = semantics._Program(seq, sig)
    return emit.compiled(semantics._emit_program, (kind,) + program.key)


def _program_source(kind, seq, sig):
    program = semantics._Program(seq, sig)
    return "\n".join(semantics._emit_program((kind,) + program.key))


# Connective names must be identifiers, and Python keywords are; proposition
# names built in code can be any string.
HOSTILE_CONNS = (
    Connective("class", "G", 1, ("1",)),
    Connective("lambda", "F", 2, ("1", "d")),
    Connective("__import__", "G", 2, ("d", "1")),
    Connective("yield", "F", 1, ("d",)),
)
HOSTILE_PROPS = ("x'y", 'a"b', "p\nq", "__import__('os')", ")\n", "while")


def _hostile_cases():
    rng = random.Random(97)
    plain_conns = tuple(
        Connective(f"c{i}", c.family, c.arity, c.order_type) for i, c in enumerate(HOSTILE_CONNS)
    )
    for i in range(40):
        props = sorted(rng.sample(HOSTILE_PROPS, 1 + i % 3))
        # plain names in the same sorted order, so that the twin is the same program
        names = {p: f"p{k}" for k, p in enumerate(props)}
        names.update({c.name: d.name for c, d in zip(HOSTILE_CONNS, plain_conns)})
        if i % 2:
            frame = random_frame(rng, Signature(HOSTILE_CONNS), 3)
        else:
            frame = boolean_frame(rng, 2 + i % 3, HOSTILE_CONNS)
        twin = Frame(
            frame.polarity,
            Signature(plain_conns),
            {names[c]: rel for c, rel in frame.relations.items()},
        )
        seq = random_sequent(rng, frame.signature, props, 2)
        yield frame, seq, twin, renamed(seq, names), names


def test_hostile_names_never_become_code(path):
    hostile = {c.name for c in HOSTILE_CONNS} | set(HOSTILE_PROPS)
    compared = 0
    for frame, seq, twin, plain, names in _hostile_cases():
        valid, counter, checked = _verdict(frame, seq)
        assert (valid, counter, checked) == frame_validates_by_models(frame, seq)
        twin_counter = None if valid else {names[p]: c for p, c in counter.items()}
        assert _verdict(twin, plain) == (valid, twin_counter, checked)
        try:
            alg = build_complex_algebra(frame)
        except IncompatibleFrameError:
            alg = None
        if alg is not None:
            assert algebra_validates(alg, seq) == algebra_validates_by_walk(alg, seq)
            compared += 1
        for kind in ("frame", "algebra"):
            # the hostile sequent runs the very code its plain twin runs
            assert _program_fns(kind, seq, frame.signature) is _program_fns(
                kind, plain, twin.signature
            )
            source = _program_source(kind, seq, frame.signature)
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
            assert not [t for t in tokens if t.type in (tokenize.STRING, tokenize.COMMENT)]
            assert not [t for t in tokens if t.string in hostile]
    assert compared >= 10


def test_program_code_is_keyed_by_family_and_order_type(path):
    rng = random.Random(101)
    text = r"k(p) |- k(q /\ p) \/ q"
    variants = [
        Connective("k", family, 1, (order,)) for family in ("F", "G") for order in ("1", "d")
    ]
    seen = {}
    for conn in variants:
        sig = Signature((conn,))
        seq = parse_sequent(text, sig)
        for kind in ("frame", "algebra"):
            seen[(conn, kind)] = _program_fns(kind, seq, sig)
        for k in (2, 3):
            fr = boolean_frame(rng, k, (conn,))
            assert _verdict(fr, seq) == frame_validates_by_models(fr, seq)
            alg = build_complex_algebra(fr)
            assert algebra_validates(alg, seq) == algebra_validates_by_walk(alg, seq)
    # one shape, four connectives, two domain kinds: eight functions
    assert len({id(fns) for fns in seen.values()}) == len(seen) == 8


@pytest.fixture
def few_loops(monkeypatch):
    """Programs with at most two loops each, so the product loop runs."""
    monkeypatch.setattr(semantics, "MAX_LOOPS", 2)
    monkeypatch.setattr(semantics, "PLAIN_WORK", -1)
    emit.compiled.cache_clear()
    yield
    emit.compiled.cache_clear()


def test_programs_past_the_loop_limit_match_the_oracles(few_loops):
    seen = set()
    for i, (fr, seq) in enumerate(_validity_cases()):
        if i % 3 or len(props_of(seq)) < 3:
            continue
        assert _verdict(fr, seq) == frame_validates_by_models(fr, seq), seq
        seen.add(frame_validates_by_models(fr, seq)[0])
    rng = random.Random(103)
    for alg in list(_algebras())[::4]:
        for _ in range(4):
            seq = random_sequent(rng, alg.signature, PROPS, 2)
            assert algebra_validates(alg, seq) == algebra_validates_by_walk(alg, seq), seq
    assert seen == {True, False}
    assert "product(" in _program_source("frame", parse_sequent(r"p /\ q |- r", SIG_BOX), SIG_BOX)


def test_many_propositions_on_a_one_concept_frame(path):
    # more propositions than CPython allows nested loops in one function
    pol = Polarity.from_names(["a"], ["x"], [("a", "x")])
    full = {
        c.name: Relation(connective_sorts(c), (1,) * (c.arity + 1), {(0,) * (c.arity + 1)})
        for c in SIG_BOX.connectives
    }
    fr = Frame(pol, SIG_BOX, full)
    props = [Prop(f"p{i:02}") for i in range(25)]
    lhs, rhs = props[0], props[-1]
    for p in props[1:]:
        lhs = And(lhs, Conn("box", (p,)))
        rhs = Or(rhs, p)
    for seq in (Sequent(lhs, rhs), Sequent(rhs, Bot()), Sequent(Top(), lhs)):
        assert _verdict(fr, seq) == frame_validates_by_models(fr, seq)
        alg = build_complex_algebra(fr)
        assert algebra_validates(alg, seq) == algebra_validates_by_walk(alg, seq)


def test_validity_checks_leave_no_cycle_holding_a_frame(path):
    rng = random.Random(107)
    seq = parse_sequent("box (p /\\ q) |- box p \\/ q", SIG_BOX)
    gc.collect()
    gc.disable()
    try:
        for warm in (False, True):
            if not warm:
                emit.compiled.cache_clear()
            fr = random_box_frame(rng, 4, 4)
            frame_validates(fr, seq)
            ref = weakref.ref(fr)
            del fr
            assert ref() is None
            alg = build_complex_algebra(random_box_frame(rng, 4, 4))
            algebra_validates(alg, seq)
            ref = weakref.ref(alg)
            del alg
            assert ref() is None
        # compiling new shapes leaves no cyclic garbage either
        emit.compiled.cache_clear()
        fr, alg = random_box_frame(rng, 3, 3), build_complex_algebra(random_box_frame(rng, 3, 3))
        gc.collect()
        frame_validates(fr, seq)
        algebra_validates(alg, seq)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "seq, message",
    [
        (
            Sequent(
                And(Prop("p"), Conn("nope", (Prop("q"),))),
                Conn("box", (Prop("p"), Prop("q"))),
            ),
            "unknown connective 'nope'",
        ),
        (
            Sequent(Conn("box", (Conn("box", ()),)), Conn("nope", ())),
            "connective 'box' expects 1 arguments, got 0",
        ),
    ],
    ids=["unknown", "arity"],
)
def test_signature_errors_come_first_in_pre_order(seq, message, frame_f1):
    with pytest.raises(SignatureError) as oracle:
        validate_formula(seq, SIG_BOX)
    assert str(oracle.value) == message
    alg = build_complex_algebra(frame_f1)
    # before the concept cap and the valuation cap, which both would refuse
    with pytest.raises(SignatureError, match=f"^{message}$"):
        frame_validates(frame_f1, seq, cap=0, concept_cap=0)
    with pytest.raises(SignatureError, match=f"^{message}$"):
        algebra_validates(alg, seq, cap=0)
