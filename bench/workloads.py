"""The three workloads: seeded inputs, set-up, and rounds of checked ops.

Each workload is a closed loop with one client in one process: an op is
issued only after the previous one has returned.  A round is a fixed list
of ops over one instance set; run.py runs whole cycles of rounds through
the workload's instance sets until the measured time is used up.

An op is one user question.  Its run() is timed; its check() runs after
the timer stops and returns None, or a description of what the oracle
rejected.  Oracle results that do not change between rounds are cached.
"""

from __future__ import annotations

import contextlib
import functools
import io
from collections import namedtuple
from itertools import product
from pathlib import Path

import inputs
import oracles

Op = namedtuple("Op", "kind label run check")

ROOT = Path(__file__).resolve().parent.parent

# Admits the 18x18 polarities; the library default refuses min side > 16.
CAP = 1 << 18
FORMS = ("impl-x", "impl-y", "pairing")


def _cached(fn, *args):
    return functools.cache(functools.partial(fn, *args))


# ---------------------------------------------------------------------------
# lattice: few large structures


LATTICE_POOL = 3
# (n, concept-count target[, comparable-pairs target]); targets are medians
# of draws at density 0.7, except the 16x16 box frame and the 18x18
# polarity, which match the concept counts of the ROADMAP baselines.
LATTICE_POLARITIES = ((12, 172), (14, 365), (16, 728), (18, 1450))
LATTICE_BOX_FRAMES = ((10, 75), (12, 172), (14, 365), (16, 625, 22500))
LATTICE_BOOLEAN_K = (3, 4)
# (connective nodes, lattice nodes) of the drawn parts of each frame's
# sequent: among the most common shapes for both signatures (about 6 % of
# draws).
LATTICE_SHAPE = (2, 3)


def lattice_generate(lk, rng):
    sets = []
    for _ in range(LATTICE_POOL):
        frames = [
            (f"box{n}", inputs.box_frame_data(lk, rng, n, n, *targets), inputs.BOX_CONNS)
            for n, *targets in LATTICE_BOX_FRAMES
        ] + [
            (f"fif{1 << k}", inputs.boolean_fif_data(lk, rng, k), inputs.BINARY_CONNS)
            for k in LATTICE_BOOLEAN_K
        ]
        sets.append(
            {
                "polarities": [
                    (f"pol{n}", inputs.polarity_data(rng, n, target))
                    for n, target in LATTICE_POLARITIES
                ],
                "frames": [
                    (
                        label,
                        data,
                        inputs.sequent_text(
                            inputs.lattice_law_sequent(rng, conns, ("p",), 2, LATTICE_SHAPE)
                        ),
                    )
                    for label, data, conns in frames
                ],
            }
        )
    return sets


def lattice_convert(lk, raw):
    out = []
    for inst in raw:
        frames = []
        for _, data, text in inst["frames"]:
            frame = lk.frame_from_dict(data)
            frames.append((frame, lk.parse_sequent(text, frame.signature)))
        polarities = [
            lk.Polarity.from_names(d["W"], d["U"], d["N"]) for _, d in inst["polarities"]
        ]
        out.append({"polarities": polarities, "frames": frames})
    return out


def lattice_rounds(lk, raw, objs, tmp):
    rounds = []
    for inst, obj in zip(raw, objs):
        ops = []
        for (label, data), pol in zip(inst["polarities"], obj["polarities"]):
            ops.append(_enumerate_op(lk, label, data, pol))
        for (label, data, _), (frame, seq) in zip(inst["frames"], obj["frames"]):
            ops += _frame_ops(lk, label, data, frame, seq)
        rounds.append(ops)
    return rounds


def _enumerate_op(lk, label, data, pol):
    expected = _cached(oracles.scan_concepts, data)
    return Op(
        "enumerate",
        label,
        lambda: lk.enumerate_concepts(pol, CAP),
        lambda out: oracles.concepts_problem(out, expected()),
    )


def _frame_ops(lk, label, data, frame, seq):
    expected = _cached(oracles.scan_concepts, data)
    bridge = {}

    def build():
        alg = lk.build_complex_algebra(frame, cap=CAP, check=False)
        return alg, lk.verify_normality(alg)

    def check_build(out):
        alg, report = out
        if not report.passed:
            return report.message
        if "valid" not in bridge:
            bridge["valid"] = lk.algebra_validates(alg, seq, cap=None)
        return oracles.concepts_problem(alg.concepts, expected())

    def check_valid(verdict):
        if "valid" not in bridge:
            alg = lk.build_complex_algebra(frame, cap=CAP, check=False)
            bridge["valid"] = lk.algebra_validates(alg, seq, cap=None)
        return _verdict_problem(lk, frame, seq, verdict, bridge["valid"])

    return [
        Op(
            "compat",
            label,
            lambda: lk.check_compatibility(frame),
            lambda report: None if report.passed else report.message,
        ),
        Op("algebra", label, build, check_build),
        Op(
            "frame_valid",
            label,
            lambda: lk.frame_validates(frame, seq, None, CAP),
            check_valid,
        ),
    ]


def _verdict_problem(lk, frame, seq, verdict, algebra_valid):
    """Bridge theorem, and the recursive clauses on a counter-valuation."""
    if verdict.valid != algebra_valid:
        return f"frame says valid={verdict.valid}, algebra says {algebra_valid}"
    if not verdict.valid:
        return oracles.counter_problem(lk, frame, seq, verdict)
    return None


# ---------------------------------------------------------------------------
# validity: many valuations per question


VALIDITY_POOL = 8
# (n, frames, drawn sequents per frame, concept-count target); n = 3 and 4
# also run the first order translation, whose work grows with the square of
# the concept count, so every class holds its count at the density-0.7
# median.  The 12x12 anchor has the ROADMAP baseline's shape: about
# 42k valuations (205 concepts, two propositions), all scanned because its
# sequent, box(p /\ q) |- box(p) \/ q, is valid (box is monotone).
VALIDITY_FRAMES = ((3, 2, 2, 3), (4, 2, 2, 5), (6, 4, 3, 13), (8, 4, 3, 33), (10, 1, 3, 75))
VALIDITY_ANCHOR = (12, 205)
ANCHOR_SEQUENT = (
    ("conn", "box", (("and", ("prop", "p"), ("prop", "q")),)),
    ("or", ("conn", "box", (("prop", "p"),)), ("prop", "q")),
)
VALIDITY_PROPS = ("p", "q")
VALIDITY_DEPTH = 3
# (connective nodes, lattice nodes) of every drawn sequent, lhs and rhs
# together: a middle shape among the most common ones (about 5 % of draws).
# With the shape and the valid share fixed, parse and evaluation costs are
# set by the frame class, and the run's latency quantiles with them.
VALIDITY_SHAPE = (2, 4)
# The first order work of a drawn sequent varies 30x; sequents for the FO
# frames are kept when the summed translation_weight of their three forms is
# within FO_WINDOW of FO_WEIGHT (the median over draws of any shape; about a
# quarter of the draws of VALIDITY_SHAPE hit it), so a cycle's FO work is set
# by its size class.
FO_WEIGHT = {3: 2118, 4: 7320}
FO_WINDOW = 0.25


def _fo_weight_ok(lk, tree, n):
    sig = lk.signature_from_dict(inputs.BOX_SIG)
    seq = lk.parse_sequent(inputs.sequent_text(tree), sig)
    weight = sum(inputs.translation_weight(lk.translate_sequent(seq, sig, f), n) for f in FORMS)
    return abs(weight - FO_WEIGHT[n]) <= FO_WINDOW * FO_WEIGHT[n]


def _validity_sequent(lk, rng, n):
    while True:
        tree = inputs.sequent(rng, inputs.BOX_CONNS, VALIDITY_PROPS, VALIDITY_DEPTH)
        if inputs.shape(*tree) != VALIDITY_SHAPE:
            continue
        if n not in FO_WEIGHT or _fo_weight_ok(lk, tree, n):
            return tree


def validity_generate(lk, rng):
    """Drawn sequents, sorted so that each size class is half valid.

    Both the full scan (valid) and the early exit (invalid) run; a fixed
    share of each keeps a run's latency quantiles set by the size classes,
    where the drawn share moved the median op by 15-25 % between seeds.
    Every class has an even number of sequents per cycle.
    """
    sets = []
    drawn = dict.fromkeys((n for n, *_ in VALIDITY_FRAMES), 0)
    for _ in range(VALIDITY_POOL):
        pairs = []
        for n, frames, per_frame, target in VALIDITY_FRAMES:
            for _ in range(frames):
                data = inputs.box_frame_data(lk, rng, n, n, target)
                frame = lk.frame_from_dict(data)
                alg = lk.build_complex_algebra(frame, check=False)
                for _ in range(per_frame):
                    want_valid = drawn[n] % 2 == 0
                    drawn[n] += 1
                    while True:
                        tree = _validity_sequent(lk, rng, n)
                        seq = lk.parse_sequent(inputs.sequent_text(tree), frame.signature)
                        if lk.algebra_validates(alg, seq) == want_valid:
                            break
                    pairs.append((f"box{n}", data, tree))
        n, target = VALIDITY_ANCHOR
        data = inputs.box_frame_data(lk, rng, n, n, target)
        pairs.append((f"anchor{n}", data, ANCHOR_SEQUENT))
        sets.append(pairs)
    return sets


def validity_convert(lk, raw):
    out = []
    for pairs in raw:
        frames = {}
        for _, data, _ in pairs:
            if id(data) not in frames:
                frame = lk.frame_from_dict(data)
                frames[id(data)] = (frame, lk.build_complex_algebra(frame, check=False))
        out.append([frames[id(data)] for _, data, _ in pairs])
    return out


def validity_rounds(lk, raw, objs, tmp):
    rounds = []
    for pairs, frames in zip(raw, objs):
        ops = []
        for (label, data, tree), (frame, alg) in zip(pairs, frames):
            ops += _validity_ops(lk, label, data, tree, frame, alg)
        rounds.append(ops)
    return rounds


def _validity_ops(lk, label, data, tree, frame, alg):
    text = inputs.sequent_text(tree)
    slot = {}

    def parse():
        slot["seq"] = lk.parse_sequent(text, frame.signature)
        return slot["seq"]

    def check_parse(seq):
        got = (oracles.tree_of(seq.lhs), oracles.tree_of(seq.rhs))
        return None if got == tree else f"parsed {got}, drawn {tree}"

    def frame_valid():
        slot["verdict"] = lk.frame_validates(frame, slot["seq"])
        return slot["verdict"]

    def check_frame_valid(verdict):
        if not verdict.valid:
            return oracles.counter_problem(lk, frame, slot["seq"], verdict)
        return None

    def check_algebra_valid(valid):
        # Bridge theorem: the frame verdict of this round must agree.
        verdict = slot.get("verdict") or lk.frame_validates(frame, slot["seq"])
        return _verdict_problem(lk, frame, slot["seq"], verdict, valid)

    ops = [
        Op("parse", label, parse, check_parse),
        Op("frame_valid", label, frame_valid, check_frame_valid),
        Op("algebra_valid", label, lambda: lk.algebra_validates(alg, slot["seq"]), check_algebra_valid),
    ]
    if frame.polarity.nw in FO_WEIGHT:
        ops.append(_fo_op(lk, label, data, frame, slot))
    return ops


def _fo_op(lk, label, data, frame, slot):
    """Translation in all three forms, evaluated under every valuation."""

    def run():
        seq = slot["seq"]
        sentences = [lk.translate_sequent(seq, frame.signature, form) for form in FORMS]
        props = sorted(lk.props_of(seq))
        concepts = lk.enumerate_concepts(frame.polarity)
        return [
            tuple(lk.eval_fo(lk.Model(frame, dict(zip(props, combo))), s) for s in sentences)
            for combo in product(concepts, repeat=len(props))
        ]

    @functools.cache
    def expected():
        seq = slot["seq"]
        props = sorted(lk.props_of(seq))
        concepts = [lk.Concept(e, i) for e, i in sorted(oracles.scan_concepts(data))]
        return [
            lk.model_validates(lk.Model(frame, dict(zip(props, combo))), seq)
            for combo in product(concepts, repeat=len(props))
        ]

    def check(rows):
        want = expected()
        if len(rows) != len(want):
            return f"{len(rows)} valuations evaluated, expected {len(want)}"
        for row, valid in zip(rows, want):
            if any(v != valid for v in row):
                return f"translation gives {row}, model validity is {valid}"
        return None

    return Op("fo_eval", label, run, check)


# ---------------------------------------------------------------------------
# small-mix: thousands of tiny questions on frames of at most 4x4 points


SMALL_POOL = 96
SMALL_PROPS = ("p", "q")

# README's golden CLI invocations with the exit codes README and acceptance
# criterion 1 give for them; "{tmp}" is a scratch directory for -o outputs.
CLI_CASES = (
    (["check", "golden/coproduct_F1.json"], 0),
    (["check", "--alt", "golden/coproduct_F1.json"], 0),
    (["concepts", "golden/coproduct_F1.json"], 0),
    (["valid", "golden/coproduct_F1.json", "box box p |- p"], 0),
    (["valid", "golden/coproduct_F1.json", "box p |- p"], 1),
    (["coproduct", "golden/coproduct_F1.json", "golden/coproduct_F2.json", "-o", "{tmp}/cop.json"], 0),
    (["pmorphism", "golden/morphism1_F2.json", "golden/morphism1_F1.json", "golden/morphism1_ST.json"], 0),
    (["filter-ideal", "golden/coproduct_F1.json", "-o", "{tmp}/fif.json"], 0),
    (["translate", "golden/sig_box.json", "box p"], 0),
    (["translate", "golden/sig_box.json", "box p |- p", "--form", "pairing"], 0),
    (
        ["falsify", "golden/coproduct_F1.json", "golden/coproduct_F2.json",
         "--condition", "R-equals-N-complement", "--construction", "coproduct"],
        0,
    ),
    (
        ["falsify", "--search", "--max-size", "2",
         "--condition", "R-equals-N-complement", "--construction", "coproduct"],
        0,
    ),
)


def small_generate(lk, rng):
    sets = []
    for _ in range(SMALL_POOL):
        f1 = inputs.small_box_frame_data(lk, rng, 3)
        f2 = inputs.small_box_frame_data(lk, rng, 3)
        sets.append(
            {
                "f1": f1,
                "f2": f2,
                "morphisms": [
                    ("identity", inputs.identity_data(f1)),
                    ("diagonal", inputs.diagonal_surjection_data(lk, rng, 2)),
                    ("embedding", inputs.component_embedding_data(lk, rng, 2)),
                ],
                "valid": (
                    inputs.small_box_frame_data(lk, rng, 4),
                    inputs.sequent(rng, inputs.BOX_CONNS, SMALL_PROPS, 2),
                ),
            }
        )
    return sets


def small_convert(lk, raw):
    out = []
    for inst in raw:
        f1, f2 = lk.frame_from_dict(inst["f1"]), lk.frame_from_dict(inst["f2"])
        morphisms = []
        for _, m in inst["morphisms"]:
            src, tgt = lk.frame_from_dict(m["source"]), lk.frame_from_dict(m["target"])
            morphisms.append(lk.morphism.morphism_from_dict(m["morphism"], src, tgt))
        vdata, vseq = inst["valid"]
        vframe = lk.frame_from_dict(vdata)
        out.append(
            {
                "f1": f1,
                "f2": f2,
                "a1": lk.build_complex_algebra(f1, check=False),
                "a2": lk.build_complex_algebra(f2, check=False),
                "morphisms": morphisms,
                "valid": (vframe, lk.parse_sequent(inputs.sequent_text(vseq), vframe.signature)),
            }
        )
    return out


def small_rounds(lk, raw, objs, tmp):
    cli_ops = [_cli_op(lk, argv, code, tmp) for argv, code in CLI_CASES]
    rounds = []
    for r, (inst, obj) in enumerate(zip(raw, objs)):
        ops = [_coproduct_law_op(lk, inst, obj), _falsify_op(lk, inst, obj)]
        for (kind, m), pm in zip(inst["morphisms"], obj["morphisms"]):
            ops += _pmorphism_ops(lk, kind, m, pm)
        ops += _filter_ideal_ops(lk, inst, obj)
        ops.append(_small_valid_op(lk, *obj["valid"]))
        # One CLI invocation per round, so that a pool cycle runs each of them
        # SMALL_POOL / len(CLI_CASES) times.
        rounds.append(ops + [cli_ops[r % len(cli_ops)]])
    return rounds


def _coproduct_law_op(lk, inst, obj):
    """Criterion 8: the coproduct's algebra is the product of the algebras."""
    @functools.cache
    def counts():
        return len(oracles.scan_concepts(inst["f1"])) * len(oracles.scan_concepts(inst["f2"]))

    def run():
        cop = lk.coproduct([obj["f1"], obj["f2"]])
        prod = lk.product_algebra(obj["a1"], obj["a2"])
        cop_alg = lk.build_complex_algebra(cop, check=False)
        return cop_alg, prod, lk.find_isomorphism(cop_alg, prod)

    def check(out):
        cop_alg, prod, iso = out
        if cop_alg.size != counts():
            return f"coproduct has {cop_alg.size} concepts, expected {counts()}"
        return oracles.isomorphism_problem(iso, cop_alg, prod)

    return Op("coproduct_law", "small", run, check)


def _falsify_op(lk, inst, obj):
    # Cross pairs of a coproduct lie in both N and R, so the coproduct always
    # fails the condition: falsified exactly when both components satisfy it.
    expected = oracles.r_is_n_complement(inst["f1"]) and oracles.r_is_n_complement(inst["f2"])
    return Op(
        "falsify",
        "small",
        lambda: lk.definability.falsify("R-equals-N-complement", "coproduct", [obj["f1"], obj["f2"]]),
        lambda report: None
        if report.falsified == expected
        else f"falsified={report.falsified}, expected {expected}",
    )


def _pmorphism_ops(lk, kind, data, pm):
    @functools.cache
    def expected():
        same = len(oracles.scan_concepts(data["source"])) == len(
            oracles.scan_concepts(data["target"])
        )
        # (passes, injective, surjective) by construction of each map
        return {
            "identity": (True, True, True),
            "diagonal": (True, same, True),
            "embedding": (True, True, same),
        }[kind]

    def check(out):
        return None if out == expected() else f"(passed, inj, surj) = {out}, expected {expected()}"

    def check_round_trip(back):
        if back.s_pairs != pm.s_pairs or back.t_pairs != pm.t_pairs:
            return "dual_pmorphism(dual_hom(pm)) changed S or T"
        return None

    return [
        Op(
            "pmorphism",
            kind,
            lambda: (lk.check_pmorphism(pm).passed, lk.is_injective(pm), lk.is_surjective(pm)),
            check,
        ),
        Op("dual_round_trip", kind, lambda: lk.dual_pmorphism(lk.dual_hom(pm)), check_round_trip),
    ]


def _filter_ideal_ops(lk, inst, obj):
    count = _cached(lambda: len(oracles.scan_concepts(inst["f1"])))

    def check_extension(fif):
        report = lk.check_compatibility(fif)
        if not report.passed:
            return report.message
        got = len(oracles.scan_concepts(fif.to_dict()))
        return None if got == count() else f"extension has {got} concepts, frame has {count()}"

    def canonical():
        fif = lk.filter_ideal_frame(obj["a1"])
        fif_alg = lk.build_complex_algebra(fif, check=False)
        return fif, fif_alg, lk.canonical_embedding(obj["a1"], fif_alg)

    def check_canonical(out):
        fif, fif_alg, emb = out
        report = lk.check_compatibility(fif)
        if not report.passed:
            return report.message
        return oracles.isomorphism_problem(emb, obj["a1"], fif_alg)

    return [
        Op("filter_ideal_extension", "small", lambda: lk.filter_ideal_extension(obj["f1"]), check_extension),
        Op("canonical_embedding", "small", canonical, check_canonical),
    ]


def _small_valid_op(lk, frame, seq):
    algebra_valid = _cached(
        lambda: lk.algebra_validates(lk.build_complex_algebra(frame, check=False), seq)
    )
    return Op(
        "frame_valid",
        "small",
        lambda: lk.frame_validates(frame, seq),
        lambda verdict: _verdict_problem(lk, frame, seq, verdict, algebra_valid()),
    )


def _cli_op(lk, argv, code, tmp):
    args = [
        a.format(tmp=tmp) if "{tmp}" in a else str(ROOT / a) if a.startswith("golden/") else a
        for a in argv
    ]

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return lk.cli.main(args)

    return Op(
        "cli",
        argv[0],
        run,
        lambda got: None if got == code else f"lekit {' '.join(argv)} exited {got}, expected {code}",
    )


# tail_rounds: the rounds of one window of op_tail_ms (see run.window_tail);
# reference: the speed.REFERENCES task whose speed the workload's ops follow.
Workload = namedtuple("Workload", "generate convert rounds tail_rounds reference")

WORKLOADS = {
    "lattice": Workload(lattice_generate, lattice_convert, lattice_rounds, LATTICE_POOL, "closures"),
    "validity": Workload(validity_generate, validity_convert, validity_rounds, 4, "closures"),
    "small-mix": Workload(small_generate, small_convert, small_rounds, 24, "containers"),
}
