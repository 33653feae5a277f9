"""Formula evaluation, satisfaction, and sequent validity."""

import ast
import gc
import io
import random
import tokenize
import weakref
from collections import Counter
from itertools import product

import pytest

from lekit import (
    And,
    Bot,
    CapExceededError,
    ComplexAlgebra,
    Conn,
    Connective,
    FiniteAlgebra,
    FormatError,
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
    check_compatibility,
    cosatisfies,
    cosatisfies_recursive,
    enumerate_concepts,
    eval_formula,
    filter_ideal_frame,
    frame_validates,
    load_frame,
    model_validates,
    parse_formula,
    parse_sequent,
    props_of,
    satisfies,
    satisfies_recursive,
    save_frame,
    validate_formula,
    verify_normality,
)
from lekit import emit, semantics
from lekit.constructions import product_algebra
from lekit.bitset import meet_rows
from lekit.frame import Relation, connective_sorts, section_zero
from lekit.sampling import SIG_BOX, stabilize_box_relation

from conftest import (
    GOLDEN,
    PROPS,
    SIG_MIX,
    algebra_validates_by_walk,
    all_box_frames_2x2,
    boolean_frame,
    eager_build,
    frame_validates_by_models,
    frame_validates_memo_only,
    random_box_frame,
    random_formula,
    random_frame,
    random_polarity,
    random_relation,
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


@pytest.mark.parametrize(
    "check, sort",
    [
        (satisfies, "W"),
        (satisfies_recursive, "W"),
        (cosatisfies, "U"),
        (cosatisfies_recursive, "U"),
    ],
)
def test_a_point_outside_its_sort_is_refused(frame_f1, check, sort):
    # F1 has two points of each sort: an index outside 0-1, or anything but
    # an index or a name, is no point, whatever the formula
    m = swap_model(frame_f1)
    for phi in (Top(), Bot()):
        for point in (2, -1, 2.0, None, "zz"):
            with pytest.raises(FormatError, match=f"^unknown {sort} point {point!r}$"):
                check(m, point, phi)
    assert check(m, 1, Top()) == (sort == "W")
    assert check(m, 1, Bot()) == (sort == "U")


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


def test_both_validity_checks_word_the_cap_alike(frame_f1):
    seq = parse_sequent("box p |- p", SIG_BOX)
    alg = build_complex_algebra(frame_f1)
    message = "^4 valuations needed, cap is 0; raise the cap to proceed$"
    with pytest.raises(CapExceededError, match=message):
        frame_validates(frame_f1, seq, cap=0)
    with pytest.raises(CapExceededError, match=message):
        algebra_validates(alg, seq, cap=0)
    assert frame_validates(frame_f1, seq, cap=4).valid is False
    assert algebra_validates(alg, seq, cap=4) is False


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


def test_a_question_compiles_once_per_kind():
    fr = all_box_frames_2x2()[7]
    alg = build_complex_algebra(fr)
    text = r"box (p /\ q) |- box p \/ q"
    seq = parse_sequent(text, SIG_BOX)
    emit.compiled.cache_clear()
    # the first check of each kind compiles its shape, even on 2x2 points
    want = _verdict(fr, seq)
    assert want == frame_validates_by_models(fr, seq)
    assert emit.compiled.cache_info().misses == 1
    valid = algebra_validates(alg, seq)
    assert valid == algebra_validates_by_walk(alg, seq)
    assert emit.compiled.cache_info().misses == 2
    # asked again or parsed again, it compiles nothing
    for _ in range(2):
        again = parse_sequent(text, SIG_BOX)
        assert _verdict(fr, seq) == _verdict(fr, again) == want
        assert algebra_validates(alg, seq) == algebra_validates(alg, again) == valid
    assert emit.compiled.cache_info().misses == 2


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


def test_hostile_names_never_become_code():
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


def test_program_code_is_keyed_by_family_and_order_type():
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


def test_many_propositions_on_a_one_concept_frame():
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


def test_validity_checks_leave_no_cycle_holding_a_frame():
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



# Reduced scans: each proposition ranges over the domain its plan gives
# (_plan), checked against the full scan, in which every one ranges over
# all concepts or elements.

# Polarities whose concept lattices are M3 and N5, the lattices that are
# not distributive.
M3 = Polarity.from_names(["a", "b", "c"], ["a", "b", "c"], [("a", "a"), ("b", "b"), ("c", "c")])
N5 = Polarity.from_names(
    ["a", "b", "c"], ["a", "b", "c"], [("a", "a"), ("a", "b"), ("b", "b"), ("c", "c")]
)


def _full_scan(monkeypatch, check, *args):
    """check(*args) with every plan read as "all"."""
    with monkeypatch.context() as m:
        m.setattr(semantics, "_DOMAINS", ("all",) * len(semantics._DOMAINS))
        return check(*args)


def _spy(monkeypatch, name):
    """What each call of semantics.<name> returns, in call order."""
    seen = []
    real = getattr(semantics, name)

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(semantics, name, spy)
    return seen


def _scans(monkeypatch):
    """The domain sizes of each run of a validity program, in call order."""
    seen = []
    real = semantics.compiled

    def spy(emit, key):
        run, *rest = real(emit, key)

        def f0(fns, doms, *args):
            seen.append([len(d) for d in doms])
            return run(fns, doms, *args)

        return (f0, *rest)

    monkeypatch.setattr(semantics, "compiled", spy)
    return seen


def _box_frame_on(rng, pol):
    """A compatible box frame on pol, its relation grown from a sparse seed."""
    seed = [(w, u) for w in range(pol.nw) for u in range(pol.nu) if rng.random() < 0.3]
    sorts = connective_sorts(SIG_BOX.connectives[0])
    rel = Relation(sorts, (pol.nw, pol.nu), stabilize_box_relation(pol, seed))
    return Frame(pol, SIG_BOX, {"box": rel})


def _reduction_frames(rng):
    """Box frames of 6x6 to 8x8 points (many not distributive), SIG_MIX
    boolean frames, the filter-ideal frames of 2^3 and 2^4, and M3 and N5
    with compatible box relations and random SIG_MIX ones."""
    for n in (6, 7, 8):
        for _ in range(3):
            yield _box_frame_on(rng, random_polarity(rng, n, n, 0.6))
    for k in (2, 3, 2, 3):
        yield boolean_frame(rng, k, SIG_MIX.connectives)
    for k in (3, 4):
        yield filter_ideal_frame(build_complex_algebra(boolean_frame(rng, k, SIG_MIX.connectives)))
    for pol in (M3, N5):
        for _ in range(3):
            yield _box_frame_on(rng, pol)
            relations = {c.name: random_relation(rng, pol, c) for c in SIG_MIX.connectives}
            yield Frame(pol, SIG_MIX, relations)


def test_polarities_m3_and_n5_have_those_lattices():
    # the number of elements below each element tells the two apart
    for pol, below in ((M3, [1, 2, 2, 2, 5]), (N5, [1, 2, 2, 3, 5])):
        alg = build_complex_algebra(Frame(pol, Signature(()), {}))
        assert sorted(c.bit_count() for c in alg.below) == below


def test_reduced_scans_answer_as_the_full_scan_on_frames(monkeypatch):
    # a reduced scan runs the program with one value for some proposition
    # first, and a frame's reduced pass answers valid at once: a valid
    # verdict after such a run is an answer by reduced scan
    scans = _scans(monkeypatch)
    reduced = Counter()

    def check(fr, seq):
        scans.clear()
        got = _verdict(fr, seq)
        first = scans[0]
        assert got == _full_scan(monkeypatch, _verdict, fr, seq), seq
        c = len(enumerate_concepts(fr.polarity))
        if min(first, default=c) < c:  # no proposition: no reduced scan
            reduced[got[0]] += 1

    rng = random.Random(109)
    compatible = Counter()
    for fr in _reduction_frames(rng):
        compatible[check_compatibility(fr).passed] += 1
        props = PROPS if fr.polarity.nw < 6 else PROPS[:2]
        for i in range(16):
            check(fr, random_sequent(rng, fr.signature, props[: 1 + i % len(props)], 3))
    assert compatible[True] >= 20 and compatible[False] >= 3, compatible
    assert reduced[True] >= 100 and reduced[False] >= 50, reduced
    # frames that are not compatible, from the model-oracle cases and with
    # random relations on 4x4 and 5x5 points: raw sections are monotone
    # there too, so a reduced pass answers with no check
    reduced.clear()
    cases = [(fr, seq) for fr, seq in _validity_cases() if not check_compatibility(fr).passed]
    for i in range(30):
        pol = random_polarity(rng, 4 + i % 2, 4 + i % 2, 0.5)
        fr = Frame(pol, SIG_MIX, {c.name: random_relation(rng, pol, c) for c in SIG_MIX.connectives})
        cases += [(fr, random_sequent(rng, SIG_MIX, PROPS[: 1 + j % 2], 3)) for j in range(8)]
    for fr, seq in cases:
        check(fr, seq)
    assert reduced[True] >= 100 and reduced[False] >= 50, reduced
    # on one concept, top alone is every concept: the one scan is the full one
    scans.clear()
    one = load_frame(GOLDEN / "empty.json")
    assert frame_validates(one, parse_sequent("p |- top", one.signature)).valid
    assert scans == [[1]]


def _non_monotone_algebra():
    """2^2 with a box that sends top to bottom and fixes the rest."""
    leq = [[i & ~j == 0 for j in range(4)] for i in range(4)]  # element i is the bit set i
    box = {(x,): 0 if x == 3 else x for x in range(4)}
    return FiniteAlgebra(["0", "a", "b", "1"], leq, SIG_BOX, {"box": box})


def test_reduced_scans_answer_as_the_full_scan_on_algebras(monkeypatch):
    # _algebra_reduction_holds runs after each reduced pass: True is a
    # verdict by reduced scan
    seen = _spy(monkeypatch, "_algebra_reduction_holds")
    rng = random.Random(127)
    for alg in _algebras():
        for i in range(12):
            props = PROPS[: 1 + i % 3]
            seq = random_sequent(rng, alg.signature, props, 3 if len(props) < 3 else 2)
            assert algebra_validates(alg, seq) == algebra_validates_by_walk(alg, seq), seq
    assert seen.count(True) >= 100, Counter(seen)
    # tables that are not monotone: a reduced pass is never taken for valid
    seen.clear()
    alg = _non_monotone_algebra()
    assert not verify_normality(alg).passed
    # box p <= q at p = top and q = bottom, but not on the whole algebra
    assert algebra_validates(alg, parse_sequent("box p |- q", SIG_BOX)) is False
    assert seen == [False]
    for _ in range(60):
        seq = random_sequent(rng, SIG_BOX, PROPS[:2], 3)
        assert algebra_validates(alg, seq) == algebra_validates_by_walk(alg, seq), seq
    assert seen.count(False) >= 10 and True not in seen, Counter(seen)


def test_a_complex_algebra_takes_no_tables():
    # the reduced scan trusts a ComplexAlgebra's tables to be its frame's
    # sections, so it takes none: a box that sends top to bot and every
    # other element to top fails "box p |- q" as a user's algebra
    fr = load_frame(GOLDEN / "coproduct_F1.json")
    alg = build_complex_algebra(fr)
    box = {(x,): alg.bot if x == alg.top else alg.top for x in range(alg.size)}
    with pytest.raises(TypeError, match="but 4 were given"):
        ComplexAlgebra(fr, alg.concepts, {"box": box})
    user = FiniteAlgebra.from_cones(alg.names, alg.above, alg.below, SIG_BOX, {"box": box})
    assert algebra_validates(user, parse_sequent("box p |- q", SIG_BOX)) is False
    assert ComplexAlgebra(fr).ops == alg.ops


def test_complex_algebras_answer_as_their_eager_build():
    # the same cones and tables built as a user's algebra must pass
    # verify_normality before a reduced pass answers: the verdicts agree
    rng = random.Random(131)
    verdicts = set()
    for alg in _algebras():
        eager = eager_build(alg, alg.names)
        for i in range(8):
            props = PROPS[: i % 4]
            seq = random_sequent(rng, alg.signature, props, 3 if len(props) < 3 else 2)
            got = algebra_validates(alg, seq)
            assert got == algebra_validates(eager, seq), seq
            verdicts.add(got)
    assert verdicts == {True, False}


# One row per shape rule: the sequent, and the plan of each proposition.
# fj is a binary F connective monotone in both places.  A proposition
# ranges over top or bot alone only when the two sides have opposite
# signs in it; a shape that preserves joins or meets still scans it all.
SIG_PLANS = Signature(SIG_MIX.connectives + (Connective("fj", "F", 2, ("1", "1")),))
PLAN_RULES = {
    "lhs-monotone-rhs-without-p": ("p |- top", {"p": "top"}),
    "lhs-without-p-rhs-monotone": ("c |- p", {"p": "bot"}),
    "lhs-preserves-joins": ("p |- box p", {"p": "all"}),
    "rhs-preserves-meets": (r"p /\ q |- p", {"p": "all", "q": "top"}),
    "G-keeps-meets-at-1": ("box p |- p", {"p": "all"}),
    "or-and-F-keep-joins": (r"dia p \/ q |- dia (p \/ q)", {"p": "all", "q": "all"}),
    "and-over-join-part": (r"dia p /\ q |- dia p", {"p": "all", "q": "top"}),
    "or-over-meet-part": (r"box p |- box p \/ q", {"p": "all", "q": "bot"}),
    "F-d-takes-no-joins": (r"dia p \/ f(q, p) |- p", {"p": "all", "q": "top"}),
    "F-d-makes-joins": ("f(q, g(p, q)) |- p", {"p": "all", "q": "all"}),
    "G-d-makes-meets": ("box p |- g(f(q, p), q)", {"p": "all", "q": "all"}),
    "lhs-antitone-rhs-joins-to-meets": ("f(q, p) |- g(p, q)", {"p": "all", "q": "all"}),
    "lhs-meets-to-joins-rhs-antitone": (
        r"f(q, p) |- g(p, bot) \/ q",
        {"p": "all", "q": "all"},
    ),
    "p-twice-keeps-sign": ("fj(p, p) |- top", {"p": "top"}),
    "p-twice-breaks-joins": ("fj(p, p) |- dia p", {"p": "all"}),
    "p-at-both-signs": ("f(p, p) |- top", {"p": "all"}),
    "anchor": (r"box(p /\ q) |- box(p) \/ q", {"p": "all", "q": "all"}),
}


@pytest.mark.parametrize("rule", PLAN_RULES)
def test_plans_follow_the_shape_rules(rule):
    text, want = PLAN_RULES[rule]
    program = semantics._Program(parse_sequent(text, SIG_PLANS), SIG_PLANS)
    for kind in ("frame", "algebra"):
        fns = emit.compiled(semantics._emit_program, (kind,) + program.key)
        plans = [semantics._DOMAINS[k] for k in fns[1](fns)]
        assert dict(zip(program.props, plans)) == want


# One-proposition sequents over SIG_BOX: box reading p (also through box p
# and p /\ top), boxes reading only constants, boxes reading a formula in p
# that is no p up to the laws of top and bot (p /\ bot, box p \/ bot,
# p \/ top), and axioms that fail at an early valuation on most frames.
# The last ones (REDUCED_FILL_SEQUENTS) have the plan top or bot and fail
# the reduced scan on most frames.
REDUCED_FILL_SEQUENTS = ("box p |- box bot", "box top |- box(box p)", r"box top |- p \/ box p")
FILL_SEQUENTS = (
    r"box(box p) /\ p |- box p \/ p",
    r"box(p /\ top) |- box(box(p \/ bot))",
    r"p /\ box top |- box bot \/ p",
    r"box(p /\ bot) /\ p |- p \/ box(top \/ p)",
    r"box(box p \/ bot) |- box p",
    r"box(p \/ top) /\ p |- box(box p)",
    "box p |- p",
    "p |- box p",
    "box(box p) |- box p",
    "p |- box top",
) + REDUCED_FILL_SEQUENTS


def _fill_frames(rng, tmp_path):
    """Compatible box frames of 2x2 to 16x16 points, SIG_MIX boolean
    frames, and frames of random relations (box and SIG_MIX) saved and
    loaded back with check=False."""
    for n in (2, 3, 4, 5, 6, 8, 10, 12, 14, 16):
        yield _box_frame_on(rng, random_polarity(rng, n, n, 0.7))
    for k in (1, 2, 3, 4):
        yield boolean_frame(rng, k, SIG_MIX.connectives)
    for i in range(12):
        sig = SIG_BOX if i % 2 else SIG_MIX
        pol = random_polarity(rng, 2 + i % 5, 2 + i % 4, 0.5)
        fr = Frame(pol, sig, {c.name: random_relation(rng, pol, c) for c in sig.connectives})
        path = tmp_path / f"random{i}.json"
        save_frame(fr, path)
        yield load_frame(path, check=False)


def test_table_fill_answers_as_the_memos_alone(monkeypatch, tmp_path):
    fills = _spy(monkeypatch, "_filled")
    scans = _scans(monkeypatch)
    rng = random.Random(137)
    seen, reduced = Counter(), Counter()
    reduced_seqs = [parse_sequent(text, SIG_BOX) for text in REDUCED_FILL_SEQUENTS]
    for fr in _fill_frames(rng, tmp_path):
        compatible = check_compatibility(fr).passed
        seqs = [random_sequent(rng, fr.signature, PROPS[: 1 + i % 2], 3) for i in range(12)]
        if fr.signature == SIG_BOX:
            seqs += [parse_sequent(text, SIG_BOX) for text in FILL_SEQUENTS]
        for seq in seqs:
            want = frame_validates_memo_only(fr, seq)
            fills.clear()
            scans.clear()
            assert _verdict(fr, seq) == want, seq
            seen[compatible, bool(fills), want[0]] += 1
            if seq in reduced_seqs and len(scans) == 2 and want[2] > 1:
                reduced[compatible, bool(fills)] += 1
    # the fill runs on compatible and incompatible frames, for valid and
    # invalid sequents alike, and is skipped where it does not apply
    for compatible in (True, False):
        for valid in (True, False):
            assert seen[compatible, True, valid] >= 5, seen
            assert seen[compatible, False, valid] >= 5, seen
    # a top or bot plan whose reduced scan fails fills on a full scan that
    # reaches a second valuation, and agrees with the memos alone on
    # compatible and unchecked frames
    assert reduced[True, True] >= 5 and reduced[False, True] >= 5, reduced
    assert not reduced[True, False] and not reduced[False, False], reduced


def test_one_proposition_sections_come_from_one_table(monkeypatch):
    rng = random.Random(139)
    fr = _box_frame_on(rng, random_polarity(rng, 10, 10, 0.7))
    assert check_compatibility(fr).passed
    zero = _spy(monkeypatch, "section_zero")  # the oracle's sections
    rows = _spy(monkeypatch, "meet_rows")  # a box's section at a miss
    fills = _spy(monkeypatch, "_filled")
    # a box whose argument depends on p computes one section at its first
    # key and fills its memo from one table at its second; one whose
    # argument is constant up to the laws of top and bot (p /\ bot, top \/ p)
    # has one key, so one section and no table.  A reduced scan that fails
    # runs again in full, with memos of its own: box p |- box bot (plan top)
    # computes box top and box bot, then box bot and box p at the bottom
    # concept, and fills at the second concept; box top |- box(box p) (plan
    # bot) computes box top and box p at the bottom concept in each scan;
    # box p is the empty extent there, as p is, so box(box p) reads box p's
    # entry; it fills nothing: a reduced scan covers one valuation, and the
    # full scan fails at its first
    for text, sections, count in (
        (r"box(box p) /\ p |- box p \/ p", 1, 1),
        ("box p |- p", 1, 1),
        (r"box(p /\ top) |- box(box p)", 1, 1),
        (r"box(p /\ bot) /\ p |- p \/ box(top \/ p)", 2, 0),
        ("box p |- box bot", 4, 1),
        ("box top |- box(box p)", 4, 0),
    ):
        seq = parse_sequent(text, SIG_BOX)
        want = frame_validates_memo_only(fr, seq)
        assert zero and not rows
        zero.clear()
        assert _verdict(fr, seq) == want
        assert not zero and (len(rows), len(fills)) == (sections, count), text
        rows.clear()
        fills.clear()
    # boxes that read only constants, and two propositions: the memos
    # alone, each section at its first read
    for text in (r"p /\ box top |- box bot \/ p", r"box(p /\ q) |- box p \/ q"):
        seq = parse_sequent(text, SIG_BOX)
        want = frame_validates_memo_only(fr, seq)
        rows.clear()
        assert _verdict(fr, seq) == want
        assert rows and not fills, text
    # box p and box(p /\ q) share one memo keyed by extents: one section per
    # distinct extent among e_p and e_p & e_q over the valuations scanned
    pairs = [(c.extent, c.intent) for c in enumerate_concepts(fr.polarity)]
    scanned = list(product(pairs, repeat=2))[: want[2]]
    keys = {e_p for (e_p, _), _ in scanned} | {e_p & e_q for (e_p, _), (e_q, _) in scanned}
    assert len(rows) == len(keys), (len(rows), len(keys))


def test_a_unary_section_is_meet_rows_on_the_one_row():
    # the validity program's section at a miss of a unary connective
    rng = random.Random(149)
    empty = 0
    for _ in range(40):
        nw, nu = rng.randint(1, 5), rng.randint(1, 5)
        for sorts in (("W", "U"), ("U", "W")):
            sizes = tuple(nw if s == "W" else nu for s in sorts)
            density = rng.choice((0.0, 0.3, 0.7))
            pairs = product(range(sizes[0]), range(sizes[1]))
            rel = Relation(sorts, sizes, [t for t in pairs if rng.random() < density])
            empty += not rel.tuples
            row = semantics._one_row(rel)
            full = (1 << sizes[0]) - 1
            for mask in range(1 << sizes[1]):  # the empty mask first
                assert meet_rows(row, mask, full) == section_zero(rel, (mask,))
    assert empty > 10


# Every pair of top-level node kinds on the two sides of a sequent, with
# random arguments: box and g are G connectives, dia and f F connectives.
def _kind_formulas(rng, kind):
    def arg():
        return random_formula(rng, SIG_MIX, PROPS[:2], 1)

    if kind == "prop":
        return rng.choice([Prop("p"), Prop("q")])
    if kind in ("top", "bot"):
        return Top() if kind == "top" else Bot()
    if kind in ("and", "or"):
        return (And if kind == "and" else Or)(arg(), arg())
    if kind == "G":
        return rng.choice([Conn("box", (arg(),)), Conn("g", (arg(), arg()))])
    return rng.choice([Conn("dia", (arg(),)), Conn("f", (arg(), arg()))])


NODE_KINDS = ("prop", "and", "or", "top", "bot", "F", "G")


def _unstable_f_section(fr):
    """True when dia's or f's section at some concept is no intent."""
    pol = fr.polarity
    concepts = enumerate_concepts(pol)
    for c in concepts:
        model = Model(fr, {"p": c})
        for text in ("dia p", "f(p, p)"):
            itn = eval_formula(model, parse_formula(text, SIG_MIX)).intent
            if pol.up(pol.down(itn)) != itn:
                return True
    return False


def test_sequent_tests_and_memo_keys_match_the_model_oracle():
    # the frame program compares extents, or intents by the Galois identity
    # when the left intent is up of its extent and the right extent down of
    # its intent; an F connective's raw section, when not stable, is
    # neither, so a left F side must not be compared by intents
    rng = random.Random(149)
    frames = [random_frame(rng, SIG_MIX, 4) for _ in range(10)]
    frames += [boolean_frame(rng, k, SIG_MIX.connectives) for k in (2, 3)]
    unstable = [fr for fr in frames if _unstable_f_section(fr)]
    assert len(unstable) >= 4, len(unstable)
    by_intents, verdicts = Counter(), Counter()
    for left in NODE_KINDS:
        for right in NODE_KINDS:
            for fr in frames:
                seq = Sequent(_kind_formulas(rng, left), _kind_formulas(rng, right))
                got = _verdict(fr, seq)
                assert got == frame_validates_by_models(fr, seq), seq
                assert got == frame_validates_memo_only(fr, seq), seq
                test = _program_source("frame", seq, SIG_MIX).split("if ")[-1]
                by_intents[left, right] += test.startswith("i")
                verdicts[got[0], fr in unstable] += 1
    # intents where the identity applies and saves a Galois read
    for left, right in (("prop", "or"), ("prop", "bot"), ("G", "or"), ("G", "bot")):
        assert by_intents[left, right] == len(frames), (left, right)
    for left in ("or", "bot", "F"):
        assert not any(by_intents[left, right] for right in NODE_KINDS), left
    for right in ("and", "top", "G"):
        assert not any(by_intents[left, right] for left in NODE_KINDS), right
    for valid in (True, False):
        for frame_unstable in (True, False):
            assert verdicts[valid, frame_unstable] >= 20, verdicts


def test_the_anchor_reads_one_memo_per_valuation():
    # box(p /\ q) |- box p \/ q: the inner loop reads box(p /\ q) from the
    # memo keyed by the extent of p /\ q and compares intents; no Galois
    # memo is read there but at a miss
    seq = parse_sequent(r"box(p /\ q) |- box p \/ q", SIG_BOX)
    tree = ast.parse(_program_source("frame", seq, SIG_BOX))
    f0 = tree.body[0]
    inner = [node for node in ast.walk(f0) if isinstance(node, ast.For)][-1]
    assert not [node for node in ast.walk(inner) if isinstance(node, ast.For) and node is not inner]
    misses = {id(n) for h in ast.walk(inner) if isinstance(h, ast.ExceptHandler) for n in ast.walk(h)}
    reads = [
        node.value.id
        for node in ast.walk(inner)
        if isinstance(node, ast.Subscript) and id(node) not in misses
    ]
    assert reads == ["R0"], reads
