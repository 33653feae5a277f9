"""Standard translation, sort checking, and first order evaluation."""

import ast
import gc
import io
import random
import re
import tokenize
import weakref

import pytest

from lekit import (
    Connective,
    FormatError,
    Frame,
    Model,
    Polarity,
    Prop,
    Signature,
    SortError,
    check_sorts,
    enumerate_concepts,
    eval_formula,
    eval_fo,
    format_fo,
    frame_validates,
    parse_formula,
    parse_sequent,
    standard_translate,
    translate_sequent,
)
from lekit import emit, fol
from lekit.frame import Relation, connective_sorts
from lekit.fol import (
    Eq,
    Exists,
    FAnd,
    FImp,
    Forall,
    NAtom,
    PredAtom,
    RAtom,
    SEQUENT_FORMS,
    Var,
)
from lekit.sampling import SIG_BOX, random_box_frame

from conftest import (
    PROPS,
    SIG_MIX,
    all_box_frames_2x2,
    boolean_frame,
    eval_fo_recursive,
    random_formula,
    random_frame,
    random_sequent,
    renamed,
    translate_sequent_by_family,
)

XV = Var("W", "x")
YV = Var("U", "y")


def test_translation_of_atoms():
    p = parse_formula("p", SIG_BOX)
    assert standard_translate(p, SIG_BOX, "W") == PredAtom("ext", "p", XV)
    assert standard_translate(p, SIG_BOX, "U") == PredAtom("int", "p", YV)


def test_translation_text_shapes():
    phi = parse_formula("box p", SIG_BOX)
    assert (
        format_fo(standard_translate(phi, SIG_BOX, "W"))
        == "(forall_u y1 (-> (P_int_p y1) (R_box x y1)))"
    )
    psi = parse_formula(r"p /\ q", SIG_BOX)
    assert (
        format_fo(standard_translate(psi, SIG_BOX, "W"))
        == "(and (P_ext_p x) (P_ext_q x))"
    )


def test_translation_of_top_and_bot():
    top_w = standard_translate(parse_formula("top", SIG_BOX), SIG_BOX, "W")
    assert format_fo(top_w) == "(= x x)"
    bot_w = standard_translate(parse_formula("bot", SIG_BOX), SIG_BOX, "W")
    assert "N" in format_fo(bot_w)  # membership in the closure of nothing


def test_sequent_forms_all_well_sorted():
    seq = parse_sequent(r"box p /\ q |- p \/ box q", SIG_BOX)
    for form in SEQUENT_FORMS:
        fof = translate_sequent(seq, SIG_BOX, form)
        check_sorts(fof, SIG_BOX)  # must not raise


def test_check_sorts_rejects_bad_terms():
    with pytest.raises(SortError):
        check_sorts(NAtom(YV, XV), SIG_BOX)  # arguments swapped
    with pytest.raises(SortError):
        check_sorts(Eq(XV, YV), SIG_BOX)  # cross-sort equality
    with pytest.raises(SortError):
        check_sorts(RAtom("box", (XV, XV)), SIG_BOX)  # box wants (W, U)
    with pytest.raises(SortError):
        check_sorts(RAtom("nope", (XV, YV)), SIG_BOX)  # unknown relation
    with pytest.raises(SortError):
        # quantified variable used at the wrong sort
        check_sorts(Forall(XV, PredAtom("int", "p", XV)), SIG_BOX)
    z = Var("Q", "z")
    for fof in (Forall(z, Eq(z, z)), Exists(z, Eq(XV, XV)), Eq(z, z), FAnd(Eq(XV, XV), Eq(z, z))):
        with pytest.raises(SortError, match="variable z has sort 'Q'"):
            check_sorts(fof, SIG_BOX)  # only W and U are sorts


def test_pointwise_agreement_random():
    rng = random.Random(61)
    for _ in range(30):
        fr = random_box_frame(rng)
        concepts = enumerate_concepts(fr.polarity)
        m = Model(fr, {"p": rng.choice(concepts), "q": rng.choice(concepts)})
        phi = random_formula(rng, SIG_BOX, ("p", "q"), 3)
        stx = standard_translate(phi, SIG_BOX, "W")
        sty = standard_translate(phi, SIG_BOX, "U")
        c = eval_formula(m, phi)
        for w in range(fr.polarity.nw):
            assert eval_fo(m, stx, {XV: w}) == bool(c.extent >> w & 1)
        for u in range(fr.polarity.nu):
            assert eval_fo(m, sty, {YV: u}) == bool(c.intent >> u & 1)


def test_sequent_forms_agree_with_validity():
    rng = random.Random(67)
    for _ in range(25):
        fr = random_box_frame(rng)
        concepts = enumerate_concepts(fr.polarity)
        seq = random_sequent(rng, SIG_BOX, ("p",), 2)
        fofs = [translate_sequent(seq, SIG_BOX, f) for f in SEQUENT_FORMS]
        for c in concepts:
            m = Model(fr, {"p": c})
            truths = {eval_fo(m, fof) for fof in fofs}
            assert len(truths) == 1  # the three shapes agree
            from lekit import model_validates

            assert truths == {model_validates(m, seq)}


def test_fresh_variables_deterministic():
    phi = parse_formula("box box p", SIG_BOX)
    a = standard_translate(phi, SIG_BOX, "W")
    b = standard_translate(phi, SIG_BOX, "W")
    assert a == b
    text = format_fo(a)
    assert "y1" in text and "y2" in text


def test_eval_fo_quantifiers_by_hand(frame_f1):
    m = Model(frame_f1, {})
    x2 = Var("W", "x2")
    # every w is incident to some u
    fof = Forall(XV, _exists_n(XV))
    assert eval_fo(m, fof)


def _exists_n(xv):
    from lekit.fol import Exists

    return Exists(YV, NAtom(xv, YV))


X2 = Var("W", "x2")
Y2 = Var("U", "y2")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (FormatError, SortError, TypeError) as exc:
        return type(exc), str(exc)


def test_compiled_eval_fo_matches_recursive_oracle():
    rng = random.Random(83)
    evaluations = 0
    for _ in range(60):
        fr = random_frame(rng, SIG_MIX, 3)
        concepts = enumerate_concepts(fr.polarity)
        props = PROPS[: rng.randint(1, 2)]
        phi = random_formula(rng, SIG_MIX, props, 3)
        seq = random_sequent(rng, SIG_MIX, props, 2)
        sentences = [translate_sequent(seq, SIG_MIX, f) for f in SEQUENT_FORMS]
        stx = standard_translate(phi, SIG_MIX, "W")
        sty = standard_translate(phi, SIG_MIX, "U")
        for _ in range(3):
            m = Model(fr, {p: rng.choice(concepts) for p in props})
            for fof in sentences:
                assert eval_fo(m, fof) == eval_fo_recursive(m, fof)
            for w in range(fr.polarity.nw):
                assert eval_fo(m, stx, {XV: w}) == eval_fo_recursive(m, stx, {XV: w})
            for u in range(fr.polarity.nu):
                assert eval_fo(m, sty, {YV: u}) == eval_fo_recursive(m, sty, {YV: u})
            evaluations += 3 + fr.polarity.nw + fr.polarity.nu
    assert evaluations > 1000


def test_shadowed_variables_exists_and_eq(frame_f1):
    m = Model(frame_f1, {})
    sentences = [
        # the inner x shadows the outer one
        Forall(XV, Forall(XV, Exists(YV, NAtom(XV, YV)))),
        Forall(XV, Exists(XV, NAtom(XV, YV))),
        Exists(XV, Forall(XV, Eq(XV, XV))),
        Forall(XV, Exists(X2, FAnd(Eq(XV, X2), Forall(X2, Eq(X2, X2))))),
        Forall(XV, Forall(X2, Eq(XV, X2))),
        Exists(
            XV, Exists(X2, FImp(Eq(XV, X2), Exists(X2, FAnd(NAtom(X2, YV), Eq(XV, X2)))))
        ),
        Forall(YV, Exists(XV, FAnd(NAtom(XV, YV), Exists(YV, NAtom(XV, YV))))),
    ]
    for fof in sentences:
        for u in range(frame_f1.polarity.nu):
            env = {YV: u}
            assert eval_fo(m, fof, env) == eval_fo_recursive(m, fof, env)
    assert not eval_fo(m, Forall(XV, Forall(X2, Eq(XV, X2))))
    # every U point has an incident W point, but not every W point is incident
    assert eval_fo(m, Forall(XV, Exists(XV, NAtom(XV, YV))), {YV: 0})
    assert not eval_fo(m, Exists(XV, Forall(XV, NAtom(XV, YV))), {YV: 0})
    assert eval_fo(m, Exists(XV, Forall(XV, Eq(XV, XV))))


def test_free_variables_from_env(frame_f1):
    m = Model(frame_f1, {"p": enumerate_concepts(frame_f1.polarity)[1]})
    fof = FAnd(FImp(PredAtom("ext", "p", XV), RAtom("box", (XV, YV))), Eq(X2, XV))
    pol = frame_f1.polarity
    for x in range(pol.nw):
        for y in range(pol.nu):
            for x2 in range(pol.nw):
                env = {XV: x, YV: y, X2: x2, Y2: 0}
                assert eval_fo(m, fof, env) == eval_fo_recursive(m, fof, env)


def test_errors_raise_only_when_reached(frame_f1):
    m = Model(frame_f1, {"p": enumerate_concepts(frame_f1.polarity)[0]})
    false = Forall(XV, Forall(X2, Eq(XV, X2)))  # two W points
    true = Exists(XV, Eq(XV, XV))
    broken = [
        NAtom(XV, Var("U", "free")),  # unbound variable
        PredAtom("ext", "nope", XV),  # missing proposition
        RAtom("nope", (XV, YV)),  # missing relation
        Prop("p"),  # not a first order node
        FAnd(true, Exists(XV, RAtom("box", (XV, Var("U", "free"))))),
    ]
    for bad in broken:
        quiet = [FAnd(false, bad), FImp(false, bad), Exists(XV, FAnd(false, bad))]
        for fof in quiet:
            env = {YV: 0}
            assert eval_fo(m, fof, env) == eval_fo_recursive(m, fof, env)
        for fof in (FAnd(true, bad), FImp(true, bad), Forall(XV, bad)):
            env = {YV: 0}
            got = _outcome(eval_fo, m, fof, env)
            assert isinstance(got, tuple)  # raised
            assert got == _outcome(eval_fo_recursive, m, fof, env)
    # an unbound free variable in an atom reached first
    assert _outcome(eval_fo, m, NAtom(XV, YV)) == (SortError, "unbound variable x")
    assert _outcome(eval_fo, m, RAtom("nope", (XV, YV))) == (
        FormatError,
        "no relation for connective 'nope'",
    )


def test_program_cache_never_serves_a_collected_sentence(frame_f1):
    pol = frame_f1.polarity
    m = Model(frame_f1, {})
    # the bodies outlive the roots, so a new root is often allocated at the
    # address of the root just collected, and its id is the cached one
    bodies = (NAtom(XV, YV), FImp(NAtom(XV, YV), Eq(XV, XV)))
    reused = 0
    for u in range(pol.nu):
        for _ in range(20):
            first = Forall(XV, bodies[0])
            assert eval_fo(m, first, {YV: u}) == eval_fo_recursive(m, first, {YV: u})
            old = id(first)
            del first  # collected here, by reference counting
            assert old not in fol._PROGRAMS
            second = Exists(XV, bodies[1])
            reused += id(second) == old
            assert eval_fo(m, second, {YV: u}) == eval_fo_recursive(m, second, {YV: u})
            del second
    assert reused
    assert all(ref() is not None for ref, _ in fol._PROGRAMS.values())


def test_a_sentence_compiles_once(frame_f1):
    text = "box p |- p"
    fof = translate_sequent(parse_sequent(text, SIG_BOX), SIG_BOX, "pairing")
    m = Model(frame_f1, {"p": enumerate_concepts(frame_f1.polarity)[0]})
    sentence = fol._sentence(fof)
    emit.compiled.cache_clear()
    # the first call compiles the sentence's shape, even on a small frame
    holds = eval_fo(m, fof)
    assert holds == eval_fo_recursive(m, fof)
    assert sentence.fns is not None and emit.compiled.cache_info().misses == 1
    # called again or translated again, it compiles nothing
    for _ in range(2):
        again = translate_sequent(parse_sequent(text, SIG_BOX), SIG_BOX, "pairing")
        assert eval_fo(m, fof) == eval_fo(m, again) == holds
    assert emit.compiled.cache_info().misses == 1


def _sentence_fns(fof):
    return emit.compiled(fol._emit_sentence, fol._sentence(fof).key + ((),))


def _sentence_source(fof, absent=()):
    return "\n".join(fol._emit_sentence(fol._Sentence(fof).key + (absent,)))


def test_hostile_names_never_become_code():
    conns = (
        Connective("class", "G", 1, ("1",)),
        Connective("lambda", "F", 2, ("1", "d")),
        Connective("__import__", "G", 2, ("d", "1")),
    )
    plain = tuple(Connective(f"c{i}", c.family, c.arity, c.order_type) for i, c in enumerate(conns))
    props = sorted(("x'y", "p\nq", "__import__('os')"))
    names = {c.name: d.name for c, d in zip(conns, plain)}
    names.update({p: f"p{k}" for k, p in enumerate(props)})
    hostile = set(names)
    rng = random.Random(109)
    for i in range(12):
        fr = boolean_frame(rng, 2 + i % 2, conns)
        concepts = enumerate_concepts(fr.polarity)
        seq = random_sequent(rng, fr.signature, props, 2)
        twin_seq = renamed(seq, names)
        for form in SEQUENT_FORMS:
            fof = translate_sequent(seq, fr.signature, form)
            twin = translate_sequent(twin_seq, Signature(plain), form)
            assert _sentence_fns(fof) is _sentence_fns(twin)
            tokens = list(tokenize.generate_tokens(io.StringIO(_sentence_source(fof)).readline))
            assert not [t for t in tokens if t.type in (tokenize.STRING, tokenize.COMMENT)]
            assert not [t for t in tokens if t.string in hostile]
            for _ in range(3):
                m = Model(fr, {p: rng.choice(concepts) for p in props})
                assert eval_fo(m, fof) == eval_fo_recursive(m, fof)
    # names reach the user only in error messages, passed as data
    fr = boolean_frame(rng, 2, conns)
    m = Model(fr, {})
    bad_var = Var("W", "__import__('os')")
    for fof in (
        Forall(XV, RAtom(")\nimport os\n(", (XV, YV))),
        Exists(YV, PredAtom("int", "x'y\n", YV)),
        Forall(YV, NAtom(bad_var, YV)),
        Forall(XV, FAnd(Eq(XV, XV), Prop("lambda: 0"))),
    ):
        got = _outcome(eval_fo, m, fof, {YV: 0})
        assert isinstance(got, tuple) and got == _outcome(eval_fo_recursive, m, fof, {YV: 0})
        absent = tuple(range(len(fol._Sentence(fof).inputs)))
        tokens = list(tokenize.generate_tokens(io.StringIO(_sentence_source(fof, absent)).readline))
        assert not [t for t in tokens if t.type in (tokenize.STRING, tokenize.COMMENT)]


def test_equal_sentences_share_code_and_results(frame_f1):
    seq = parse_sequent("box (p /\\ q) |- box p \\/ q", SIG_BOX)
    concepts = enumerate_concepts(frame_f1.polarity)
    for form in SEQUENT_FORMS:
        first = translate_sequent(seq, SIG_BOX, form)
        again = translate_sequent(seq, SIG_BOX, form)
        assert first == again and first is not again
        fns = _sentence_fns(first)
        misses = emit.compiled.cache_info().misses
        assert _sentence_fns(again) is fns
        assert emit.compiled.cache_info().misses == misses
        for p in concepts:
            for q in concepts:
                m = Model(frame_f1, {"p": p, "q": q})
                assert eval_fo(m, first) == eval_fo(m, again) == eval_fo_recursive(m, first)
    # different sentences of one shape share code; different shapes do not
    x2 = Var("W", "z")
    fns = _sentence_fns(Forall(XV, NAtom(XV, YV)))
    assert fns is _sentence_fns(Forall(x2, NAtom(x2, YV)))
    assert fns is not _sentence_fns(Exists(XV, NAtom(XV, YV)))


@pytest.fixture
def small_functions(monkeypatch):
    """Generated functions of one loop and two statement levels each."""
    monkeypatch.setattr(fol, "MAX_LOOPS", 1)
    monkeypatch.setattr(fol, "_MAX_DEPTH", 2)
    monkeypatch.setattr(fol, "_MAX_PARENS", 4)
    emit.compiled.cache_clear()
    fol._PROGRAMS.clear()
    yield
    emit.compiled.cache_clear()
    fol._PROGRAMS.clear()


def test_split_sentences_match_the_recursive_oracle(small_functions):
    rng = random.Random(113)
    helpers = 0
    for _ in range(25):
        fr = random_frame(rng, SIG_MIX, 3)
        concepts = enumerate_concepts(fr.polarity)
        seq = random_sequent(rng, SIG_MIX, PROPS[:2], 2)
        phi = random_formula(rng, SIG_MIX, PROPS[:2], 3)
        sentences = [translate_sequent(seq, SIG_MIX, f) for f in SEQUENT_FORMS]
        stx = standard_translate(phi, SIG_MIX, "W")
        for _ in range(2):
            m = Model(fr, {p: rng.choice(concepts) for p in PROPS[:2]})
            for fof in sentences:
                assert eval_fo(m, fof) == eval_fo_recursive(m, fof)
            for w in range(fr.polarity.nw):
                assert eval_fo(m, stx, {XV: w}) == eval_fo_recursive(m, stx, {XV: w})
        helpers += sum(len(fol._sentence(f).fns) - 1 for f in sentences)
    assert helpers > 100


def test_deep_sentences_on_a_one_point_frame():
    pol = Polarity.from_names(["a"], ["u"], [("a", "u")])
    fr = Frame(
        pol,
        SIG_BOX,
        {
            c.name: Relation(connective_sorts(c), (1,) * (c.arity + 1), set())
            for c in SIG_BOX.connectives
        },
    )
    m = Model(fr, {})
    deep = NAtom(XV, YV)
    for i in range(60):
        v = Var("W" if i % 2 else "U", f"z{i}")
        if i % 3:
            deep = Forall(v, FAnd(Exists(XV, deep), Eq(v, v)))
        else:
            deep = Exists(v, FImp(NAtom(XV, YV), Forall(YV, deep)))
    chain = Eq(XV, XV)
    for i in range(300):
        chain = FAnd(chain, NAtom(XV, YV)) if i % 2 else FImp(RAtom("box", (XV, YV)), chain)
    for fof in (Forall(YV, deep), Forall(XV, Forall(YV, chain))):
        assert eval_fo(m, fof) == eval_fo_recursive(m, fof)
    assert len(_sentence_fns(Forall(YV, deep))) > 1


def test_eval_fo_leaves_no_cycle_holding_a_frame():
    rng = random.Random(127)
    seq = parse_sequent("box (p /\\ q) |- box p \\/ q", SIG_BOX)
    gc.collect()
    gc.disable()
    try:
        for warm in (False, True):
            if not warm:
                emit.compiled.cache_clear()
            fr = random_box_frame(rng, 3, 3)
            fof = translate_sequent(seq, SIG_BOX, "pairing")
            c = enumerate_concepts(fr.polarity)[0]
            eval_fo(Model(fr, {"p": c, "q": c}), fof)
            ref = weakref.ref(fr)
            del fr, c
            assert ref() is None
        # compiling a new shape leaves no cyclic garbage either
        emit.compiled.cache_clear()
        fof = Forall(XV, Exists(YV, FAnd(NAtom(XV, YV), RAtom("box", (XV, YV)))))
        m = Model(random_box_frame(rng, 3, 3), {})
        gc.collect()
        eval_fo(m, fof)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sequent_translations_match_family_clauses():
    rng = random.Random(515)
    for _ in range(300):
        seq = random_sequent(rng, SIG_MIX, PROPS, 3)
        for form in SEQUENT_FORMS:
            got = format_fo(translate_sequent(seq, SIG_MIX, form))
            assert got == format_fo(translate_sequent_by_family(seq, SIG_MIX, form))


def test_format_fo_of_deep_sentence_is_a_format_error():
    sig = Signature((Connective("box", "G", 1, ("1",)),))
    sentence = translate_sequent(parse_sequent("box " * 250 + "p |- p", sig), sig)
    with pytest.raises(FormatError, match="nested too deeply"):
        format_fo(sentence)
    assert format_fo(translate_sequent(parse_sequent("box " * 20 + "p |- p", sig), sig))


def test_env_values_must_be_points_of_their_sort(frame_f1):
    m = Model(frame_f1, {"p": enumerate_concepts(frame_f1.polarity)[0]})
    nw, nu = frame_f1.polarity.nw, frame_f1.polarity.nu
    z = Var("Q", "z")
    cases = [
        (NAtom(XV, YV), {XV: -1, YV: 0}, "x", -1, "W"),
        (NAtom(XV, YV), {XV: 99, YV: 0}, "x", 99, "W"),
        (NAtom(XV, YV), {XV: "a", YV: 0}, "x", "a", "W"),
        (NAtom(XV, YV), {XV: 0, YV: nu}, "y", nu, "U"),
        (Forall(YV, PredAtom("ext", "p", XV)), {XV: nw}, "x", nw, "W"),
        (Exists(X2, RAtom("box", (XV, YV))), {XV: 0, YV: 0.0}, "y", 0.0, "U"),
        (Forall(XV, Eq(z, z)), {z: 0}, "z", 0, "Q"),
    ]
    for fof, env, name, value, sort in cases:
        want = (SortError, f"variable {name} is bound to {value!r}, not a point of sort {sort}")
        assert _outcome(eval_fo, m, fof, env) == want
        assert _outcome(eval_fo_recursive, m, fof, env) == want
        # like an absent input, it raises only when evaluation reaches it
        false = Forall(XV, Forall(X2, Eq(XV, X2)))
        assert eval_fo(m, FAnd(false, fof), env) is False
    assert eval_fo(m, NAtom(XV, YV), {XV: nw - 1, YV: nu - 1}) == frame_f1.polarity.n(nw - 1, nu - 1)


W_VARS = (XV, X2)
U_VARS = (YV, Y2)
Q_VAR = Var("Q", "q")


def _random_fo(rng, depth):
    """A hand-built formula: exists, equality, shadowing, free variables,
    and now and then an ill-sorted atom, an absent input or a node that is
    not first order."""
    if depth == 0 or rng.random() < 0.2:
        return _random_atom(rng)
    if rng.random() < 0.35:
        cls = rng.choice((FAnd, FImp))
        return cls(_random_fo(rng, depth - 1), _random_fo(rng, depth - 1))
    var = Q_VAR if rng.random() < 0.02 else rng.choice(W_VARS + U_VARS)
    return rng.choice((Forall, Exists))(var, _random_fo(rng, depth - 1))


def _random_atom(rng):
    ill = rng.random() < 0.08
    any_var = W_VARS + U_VARS + (Q_VAR,)

    def var(sort):
        return rng.choice(any_var if ill else W_VARS if sort == "W" else U_VARS)

    pick = rng.random()
    if pick < 0.01:
        return Prop("p")
    if pick < 0.25:
        return NAtom(var("W"), var("U"))
    if pick < 0.4:
        sort = rng.choice("WU")
        return Eq(var(sort), var(sort))
    if pick < 0.6:
        prop = "nope" if rng.random() < 0.03 else rng.choice(("p", "q"))
        kind = rng.choice(("ext", "int"))
        return PredAtom(kind, prop, var("W" if kind == "ext" else "U"))
    conn = rng.choice(SIG_MIX.connectives)
    name = "nope" if rng.random() < 0.02 else conn.name
    return RAtom(name, tuple(var(s) for s in connective_sorts(conn)))


# Atoms across sorts, read at a bound variable, where a mask would differ
# from the loop when the two sorts have different sizes.
ILL_SORTED = (
    Exists(XV, Eq(XV, YV)),
    Forall(YV, Exists(XV, FAnd(Eq(YV, XV), NAtom(XV, Y2)))),
    Exists(YV, NAtom(YV, XV)),
    Exists(XV, FImp(PredAtom("int", "p", XV), NAtom(XV, YV))),
    Forall(XV, RAtom("box", (YV, XV))),
)


def _result(fn, *args):
    """fn's value, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (FormatError, SortError, TypeError, IndexError) as exc:
        return type(exc), str(exc)


def _empty_relations(fr):
    rels = {name: Relation(r.sorts, r.sizes, ()) for name, r in fr.relations.items()}
    return Frame(fr.polarity, fr.signature, rels)


def test_masks_match_the_oracle():
    """Generated code agrees with the oracle, verdicts and errors, on seeded cases."""
    rng = random.Random(131)
    compared = raised = masked = 0
    for i in range(40):
        sig = SIG_BOX if i % 4 == 0 else SIG_MIX
        fr = random_frame(rng, sig, 4)
        if i % 5 == 1:
            fr = _empty_relations(fr)
        pol = fr.polarity
        concepts = enumerate_concepts(pol)
        seq = random_sequent(rng, sig, PROPS[:2], 3)
        phi = random_formula(rng, sig, PROPS[:2], 3)
        translations = [translate_sequent(seq, sig, f) for f in SEQUENT_FORMS]
        hand = [_random_fo(rng, 5) for _ in range(6)] + list(ILL_SORTED)
        for _ in range(2):
            m = Model(fr, {p: rng.choice(concepts) for p in PROPS[: rng.choice((1, 2, 2))]})
            cases = [(f, None) for f in translations]
            cases += [(standard_translate(phi, sig, "W"), {XV: w}) for w in range(pol.nw)]
            cases += [(standard_translate(phi, sig, "U"), {YV: u}) for u in range(pol.nu)]
            for fof in hand:
                env = {v: rng.randrange(pol.nw if v.sort == "W" else pol.nu) for v in W_VARS + U_VARS}
                if rng.random() < 0.2:
                    del env[rng.choice(list(env))]
                if rng.random() < 0.1:
                    env[rng.choice(list(env) + [Q_VAR])] = rng.choice((-1, 5, "a"))
                cases.append((fof, env))
            for fof, env in cases:
                got = _result(eval_fo, m, fof, env)
                assert got == _result(eval_fo_recursive, m, fof, env), format_fo(fof)
                compared += 1
                raised += isinstance(got, tuple)
            masked += sum(bool(re.search(r" m\d+ = ", _sentence_source(fof))) for fof in hand)
    assert compared > 1000 and raised > 100 and masked > 100


def test_box_translations_compile_without_nested_loops():
    """With every input present, a translation over one unary connective
    is one mask per quantifier: no for loop inside another."""
    rng = random.Random(137)
    for _ in range(40):
        seq = random_sequent(rng, SIG_BOX, PROPS[:2], 3)
        for form in SEQUENT_FORMS:
            tree = ast.parse(_sentence_source(translate_sequent(seq, SIG_BOX, form)))
            for loop in [n for n in ast.walk(tree) if isinstance(n, ast.For)]:
                inner = [n for n in ast.walk(loop) if isinstance(n, ast.For)]
                assert inner == [loop], format_fo(translate_sequent(seq, SIG_BOX, form))
