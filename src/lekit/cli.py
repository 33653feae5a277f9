"""Command line interface.

Exit codes: 0 for PASS / valid / success, 1 for FAIL / invalid,
2 for input errors.  The LEKIT_CAP environment variable sets the default
enumeration cap; --cap overrides it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import __version__
from .algebra import load_algebra
from .bitset import bits
from .constructions import coproduct, filter_ideal_extension, filter_ideal_frame
from .definability import (
    CONDITIONS,
    CONSTRUCTIONS,
    falsify,
    search_falsification,
)
from .errors import IncompatibleFrameError, LekitError
from .fol import SEQUENT_FORMS, format_fo, standard_translate, translate_sequent
from .frame import (
    check_compatibility,
    check_compatibility_alt,
    load_frame,
    save_frame,
)
from .morphism import check_pmorphism, load_morphism
from .polarity import enumerate_concepts
from .reading import read_json
from .semantics import frame_validates
from .syntax import parse_formula, parse_sequent, signature_from_dict


@functools.cache
def build_parser():
    """The argument parser, built once per process; it depends on constants only."""
    parser = argparse.ArgumentParser(
        prog="lekit",
        description="Polarity-based semantics for lattice expansion logics.",
    )
    parser.add_argument("--version", action="version", version=f"lekit {__version__}")
    parser.add_argument("--json", action="store_true", help="machine readable output")
    parser.add_argument(
        "--cap", type=int, default=None, help="most concepts an enumeration may find"
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the compatibility check when loading frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check frame compatibility")
    p.add_argument("frame")
    p.add_argument(
        "--alt",
        action="store_true",
        help="use the closure-invariance formulation (small frames only)",
    )

    p = sub.add_parser("concepts", help="list the concepts of a frame's polarity")
    p.add_argument("frame")

    p = sub.add_parser("valid", help="decide frame validity of a sequent")
    p.add_argument("frame")
    p.add_argument("sequent")

    p = sub.add_parser("coproduct", help="coproduct of two or more frames")
    p.add_argument("frames", nargs="+")
    p.add_argument("-o", "--output", help="write the frame JSON here (default stdout)")

    p = sub.add_parser("pmorphism", help="check a p-morphism between frames")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("morphism")

    p = sub.add_parser("filter-ideal", help="filter-ideal frame of an algebra or frame")
    p.add_argument("frame", nargs="?", help="frame file (its complex algebra is used)")
    p.add_argument("--algebra", help="algebra file instead of a frame")
    p.add_argument("-o", "--output", help="write the frame JSON here (default stdout)")

    p = sub.add_parser("translate", help="standard first order translation")
    p.add_argument("signature")
    p.add_argument("text", help="a sequent 'phi |- psi' or a single formula")
    p.add_argument("--form", choices=SEQUENT_FORMS, default="impl-x")
    p.add_argument(
        "--sort",
        choices=["w", "u"],
        default="w",
        help="translation sort for a single formula",
    )

    p = sub.add_parser("falsify", help="falsify closure of a frame condition")
    p.add_argument("frames", nargs="*")
    p.add_argument("--condition", required=True, choices=sorted(CONDITIONS))
    p.add_argument("--construction", required=True, choices=CONSTRUCTIONS)
    p.add_argument("--morphism", help="morphism file (source target order as given)")
    p.add_argument("--search", action="store_true", help="search small frames for witnesses")
    p.add_argument("--max-size", type=int, help="point bound for --search")
    return parser


def _cap(args):
    if args.cap is not None:
        cap, source = args.cap, "--cap"
    else:
        env = os.environ.get("LEKIT_CAP")
        if not env:
            return None
        try:
            cap, source = int(env), "LEKIT_CAP"
        except ValueError:
            raise LekitError(f"LEKIT_CAP must be an integer, got {env!r}") from None
    if cap < 0:
        raise LekitError(f"{source} must be at least 0, got {cap}")
    return cap


def _emit(args, report_dict, text):
    if args.json:
        print(json.dumps(report_dict, indent=2, sort_keys=True))
    else:
        print(text)


def _write_frame(args, frame):
    """Save the frame to args.output and say so, or print its JSON."""
    if not args.output:
        print(json.dumps(frame.to_dict(), indent=2, sort_keys=True))
        return 0
    save_frame(frame, args.output)
    nw, nu = frame.polarity.nw, frame.polarity.nu
    _emit(
        args,
        {"written": args.output, "W": nw, "U": nu},
        f"wrote {args.output} ({nw} W point{'' if nw == 1 else 's'}, "
        f"{nu} U point{'' if nu == 1 else 's'})",
    )
    return 0


def _load(path, args):
    return load_frame(path, check=not args.no_check)


@contextlib.contextmanager
def _checked_as(paths):
    """Name the frame files in an incompatibility found past the load.

    A filter-ideal extension checks its frame as it builds the complex
    algebra, --no-check or not, so its frame is loaded unchecked and
    checked once; this keeps the message a checked load gives.
    """
    try:
        yield
    except IncompatibleFrameError as exc:
        raise IncompatibleFrameError(f"{', '.join(paths)}: {exc}") from None


def run(args):
    cap = _cap(args)

    if args.command == "check":
        frame = load_frame(args.frame, check=False)
        report = (
            check_compatibility_alt(frame) if args.alt else check_compatibility(frame)
        )
        _emit(args, report.to_dict(), report.message)
        return 0 if report.passed else 1

    if args.command == "concepts":
        frame = _load(args.frame, args)
        concepts = enumerate_concepts(frame.polarity, cap)
        pol = frame.polarity
        if args.json:
            data = [
                {
                    "extent": [pol.w_names[i] for i in bits(c.extent)],
                    "intent": [pol.u_names[i] for i in bits(c.intent)],
                }
                for c in concepts
            ]
            print(json.dumps({"count": len(concepts), "concepts": data}, indent=2))
        else:
            for c in concepts:
                print(c.show(pol))
            unit = "concept" if len(concepts) == 1 else "concepts"
            print(f"{len(concepts)} {unit}")
        return 0

    if args.command == "valid":
        frame = _load(args.frame, args)
        sequent = parse_sequent(args.sequent, frame.signature)
        verdict = frame_validates(frame, sequent, cap=None, concept_cap=cap)
        _emit(args, verdict.to_dict(frame), verdict.describe(frame))
        return 0 if verdict.valid else 1

    if args.command == "coproduct":
        frames = [_load(path, args) for path in args.frames]
        return _write_frame(args, coproduct(frames))

    if args.command == "pmorphism":
        source = _load(args.source, args)
        target = _load(args.target, args)
        pm = load_morphism(args.morphism, source, target)
        report = check_pmorphism(pm, cap)
        _emit(args, report.to_dict(), report.message)
        return 0 if report.passed else 1

    if args.command == "filter-ideal":
        if (args.algebra is None) == (args.frame is None):
            raise LekitError("give either a frame file or --algebra")
        if args.algebra:
            alg = load_algebra(args.algebra)
            out = filter_ideal_frame(alg)
        else:
            with _checked_as([args.frame]):
                out = filter_ideal_extension(load_frame(args.frame, check=False), cap)
        return _write_frame(args, out)

    if args.command == "translate":
        sig = signature_from_dict(read_json(args.signature))
        if "|-" in args.text:
            sentence = translate_sequent(parse_sequent(args.text, sig), sig, args.form)
        else:
            sentence = standard_translate(
                parse_formula(args.text, sig), sig, args.sort.upper()
            )
        text = format_fo(sentence)
        _emit(args, {"translation": text}, text)
        return 0

    if args.command == "falsify":
        if args.search and args.frames:
            raise LekitError(f"--search reads no frame files, got {' '.join(args.frames)}")
        if args.max_size is not None and not args.search:
            raise LekitError(f"only --search reads --max-size, got --max-size {args.max_size}")
        if args.morphism and (args.search or args.construction in ("coproduct", "filter-ideal")):
            by = "--search" if args.search else args.construction
            raise LekitError(f"{by} reads no --morphism, got {args.morphism}")
        if args.search:
            bound = {} if args.max_size is None else {"max_size": args.max_size}
            report = search_falsification(args.condition, args.construction, cap=cap, **bound)
        else:
            check = not args.no_check and args.construction != "filter-ideal"
            frames = [load_frame(path, check=check) for path in args.frames]
            morphism = None
            if args.construction in ("pmorphic-image", "generated-subframe"):
                if len(frames) != 2 or not args.morphism:
                    raise LekitError(
                        f"{args.construction} needs two frames and --morphism"
                    )
                morphism = load_morphism(args.morphism, frames[0], frames[1])
                frames = []
            with _checked_as(args.frames):
                report = falsify(
                    args.condition, args.construction, frames, morphism=morphism, cap=cap
                )
        _emit(args, report.to_dict(), report.message)
        return 0 if report.falsified else 1

    raise LekitError(f"unknown command {args.command!r}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = run(args)
    except (LekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        code = 2
    if argv is None:
        sys.exit(code)
    return code
