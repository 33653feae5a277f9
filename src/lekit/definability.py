"""Closure-condition falsifiers for frame-class definability arguments.

A frame class axiomatizable by sequents is closed under p-morphic
images, generated subframes and coproducts, and reflects filter-ideal
extensions.  Each falsifier exhibits a violation of one closure property
for a first order frame condition, showing the condition has no sequent
axiomatization.

Conditions apply to frames with a single unary connective whose relation
pairs a W point with a U point (either orientation); R below is read as
a subset of W x U.

One table (_WITNESS) says, per construction, which frames of a witness
must satisfy the condition and which must then fail it.  falsify walks it
after one p-morphism check.  The search walks the small frames of
sampling.box_frames under every construction, judges each candidate by
bare condition checks and gives falsify's report for the first hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constructions import coproduct, filter_ideal_extension
from .errors import CapExceededError, FormatError, InvalidPMorphismError
from .morphism import check_pmorphism
from .polarity import DEFAULT_CONCEPT_CAP
from .sampling import (
    box_frame,
    box_frames,
    component_embedding,
    diagonal_surjection,
)


def box_pairs(frame):
    """The frame's single unary relation, oriented as W x U pairs."""
    conns = frame.signature.connectives
    if len(conns) != 1 or conns[0].arity != 1:
        raise FormatError("condition checks need exactly one unary connective")
    conn = conns[0]
    rel = frame.relations[conn.name]
    if set(rel.sorts) != {"W", "U"}:
        raise FormatError("condition checks need a relation pairing W with U")
    if rel.sorts == ("W", "U"):
        return {(w, u) for w, u in rel.tuples}
    return {(w, u) for u, w in rel.tuples}


def _r_equals_n_complement(frame):
    r = box_pairs(frame)
    pol = frame.polarity
    for w in range(pol.nw):
        for u in range(pol.nu):
            in_r = (w, u) in r
            in_n = pol.n(w, u)
            if in_r == in_n:
                where = "both" if in_r else "neither"
                return False, (
                    f"({pol.w_names[w]}, {pol.u_names[u]}) is in {where} of R and N"
                )
    return True, None


def _every_u_has_non_r_w(frame):
    r = box_pairs(frame)
    pol = frame.polarity
    for u in range(pol.nu):
        if all((w, u) in r for w in range(pol.nw)):
            return False, f"every W point is R-related to {pol.u_names[u]}"
    return True, None


def _r_complement_subset_n(frame):
    r = box_pairs(frame)
    pol = frame.polarity
    for w in range(pol.nw):
        for u in range(pol.nu):
            if (w, u) not in r and not pol.n(w, u):
                return False, (
                    f"({pol.w_names[w]}, {pol.u_names[u]}) is outside R but not in N"
                )
    return True, None


CONDITIONS = {
    "R-equals-N-complement": _r_equals_n_complement,
    "every-u-has-non-R-w": _every_u_has_non_r_w,
    "R-complement-subset-N": _r_complement_subset_n,
}

CONSTRUCTIONS = ("coproduct", "pmorphic-image", "generated-subframe", "filter-ideal")


def check_condition(name, frame):
    """(holds, witness) for a built-in condition on a frame."""
    try:
        fn = CONDITIONS[name]
    except KeyError:
        raise FormatError(
            f"unknown condition {name!r}; choose from {sorted(CONDITIONS)}"
        ) from None
    return fn(frame)


@dataclass
class FalsifyReport:
    falsified: bool
    condition: str
    construction: str
    details: list = field(default_factory=list)

    @property
    def message(self):
        head = (
            f"{'FALSIFIED' if self.falsified else 'NOT FALSIFIED'}: closure of "
            f"{self.condition!r} under {self.construction}"
        )
        return "\n".join([head] + [f"  {d}" for d in self.details])

    def to_dict(self):
        return {
            "falsified": self.falsified,
            "condition": self.condition,
            "construction": self.construction,
            "details": list(self.details),
        }


class SearchMiss:
    """search_falsification's answer when no candidate is a witness: how
    many were judged, and whether they are all there are up to max_size.
    A plain class: a dataclass costs an exec at every import of lekit."""

    falsified = False

    def __init__(self, candidates, complete, max_size):
        self.candidates = candidates
        self.complete = complete
        self.max_size = max_size

    @property
    def message(self):
        size = f"{self.max_size}x{self.max_size}"
        if self.complete:
            return f"NOT FALSIFIED: no witness among all {self.candidates} candidates up to {size}"
        return (f"NOT FALSIFIED: no witness among the first {self.candidates} candidates "
                f"up to {size}; the search stopped at its bound")

    def to_dict(self):
        return {"falsified": False, "searched": True, "complete": self.complete,
                "candidates": self.candidates}


# Per construction: what a p-morphism witness must be, with the detail line
# saying it is (None: no morphism); the name ("{}" is a number) and the map
# from a witness (frames, morphism, cap) to the frames that must satisfy the
# condition; the name and the map to the frame that must then fail it, which
# runs only once the others pass (so a search builds few coproducts).
_WITNESS = {
    "coproduct": (
        None, "component {}", lambda frames, pm, cap: frames,
        "the coproduct", lambda frames, pm, cap: coproduct(frames),
    ),
    "pmorphic-image": (
        ("surjective", "verified surjective p-morphism"),
        "the source", lambda frames, pm, cap: (pm.source,),
        "the image", lambda frames, pm, cap: pm.target,
    ),
    "generated-subframe": (
        ("injective", "verified injective p-morphism; the source is a generated subframe"),
        "the ambient frame", lambda frames, pm, cap: (pm.target,),
        "the subframe", lambda frames, pm, cap: pm.source,
    ),
    "filter-ideal": (
        None, "the filter-ideal extension",
        lambda frames, pm, cap: (filter_ideal_extension(frames[0], cap),),
        "the frame", lambda frames, pm, cap: frames[0],
    ),
}


def _witness(construction):
    try:
        return _WITNESS[construction]
    except KeyError:
        raise FormatError(
            f"unknown construction {construction!r}; choose from {CONSTRUCTIONS}"
        ) from None


def falsify(condition, construction, frames, morphism=None, cap=None):
    """Check a closure violation witness for the given construction.

    coproduct: every component frame satisfies the condition but the
    coproduct does not.  pmorphic-image: a verified surjective p-morphism
    whose source satisfies it and target does not.  generated-subframe:
    a verified injective p-morphism whose target satisfies it and source
    does not.  filter-ideal: a frame whose filter-ideal extension
    satisfies it while the frame itself does not.
    """
    needs, keeper, keepers, loser, last = _witness(construction)
    details = []
    if needs:
        if morphism is None:
            raise FormatError(f"{construction} needs a morphism witness")
        report = check_pmorphism(morphism, cap)
        if not report.passed:
            raise InvalidPMorphismError(report.message)
        what, line = needs
        if not getattr(report, what):
            details.append(f"the p-morphism is not {what}")
            return FalsifyReport(False, condition, construction, details)
        details.append(line)
    elif construction == "filter-ideal" and len(frames) != 1:
        raise FormatError(f"filter-ideal needs exactly one frame, got {len(frames)}")
    return _verdict(condition, construction, details, keepers(frames, morphism, cap),
                    lambda: last(frames, morphism, cap))


def _verdict(condition, construction, details, kept, lost):
    """falsify's report past its p-morphism check: every frame of kept must
    satisfy the condition, and then the frame lost() must fail it."""
    _, keeper, _, loser, _ = _WITNESS[construction]
    for k, fr in enumerate(kept, 1):
        holds, witness = check_condition(condition, fr)
        if not holds:
            details.append(f"{keeper.format(k)} fails the condition: {witness}")
            return FalsifyReport(False, condition, construction, details)
        details.append(f"{keeper.format(k)} satisfies the condition")
    holds, witness = check_condition(condition, lost())
    details.append(f"{loser} also satisfies the condition" if holds else f"{loser} fails it: {witness}")
    return FalsifyReport(not holds, condition, construction, details)


def search_falsification(condition, construction, max_size=3, tries=200, cap=None):
    """Bounded search for a falsifying witness: falsify's report on the
    first hit, else a SearchMiss.

    The search walks box_frames up to max_size x max_size, smallest first,
    and builds and judges each frame once.  A filter-ideal or
    pmorphic-image candidate is a frame; a coproduct candidate pairs frames
    that satisfy the condition, a generated-subframe one any two frames:
    each new frame with itself, then with every earlier one (in both
    orders under generated-subframe).  A candidate's extension or
    coproduct is built only when its frames do not already rule it out.
    tries bounds the candidates, and the miss says whether the walk was
    complete.  Under the p-morphism constructions a component must fail
    the condition and the coproduct (fr + fr, f1 + f2) satisfy it, which
    no built-in condition allows, so those searches miss.  A frame
    searched has at most 2**max_size concepts, so a max_size with
    2**max_size above the cap is refused.
    """
    if max_size < 1:
        raise FormatError(f"max_size must be at least 1, got {max_size}; "
                          "pass --max-size 1 or more")
    cap = DEFAULT_CONCEPT_CAP if cap is None else cap
    if max_size >= cap.bit_length():  # 2**max_size > cap, without computing 2**max_size
        raise CapExceededError(
            f"--max-size {max_size} walks frames of up to 2**{max_size} concepts, "
            f"above the concept cap {cap}; lower --max-size or raise --cap or LEKIT_CAP"
        )
    _witness(construction)  # an unknown construction is refused before the walk
    count = 0
    for frames in _candidates(condition, construction, max_size):
        if count == tries:
            return SearchMiss(count, False, max_size)
        count += 1
        (first, holds), (last, _) = frames[0], frames[-1]
        if construction == "coproduct":
            cop = coproduct((first, last))
            if not check_condition(condition, cop)[0]:
                return _verdict(condition, construction, [], (first, last), lambda: cop)
        elif holds:
            continue  # the frame, the image or the subframe must fail the condition
        elif construction == "filter-ideal":
            ext = filter_ideal_extension(first, cap)
            if check_condition(condition, ext)[0]:
                return _verdict(condition, construction, [], (ext,), lambda: first)
        else:
            pm, cop = (diagonal_surjection(first) if construction == "pmorphic-image"
                       else component_embedding(first, last))
            if check_condition(condition, cop)[0]:
                return falsify(condition, construction, [], morphism=pm, cap=cap)
    return SearchMiss(count, True, max_size)


def _candidates(condition, construction, max_size):
    """The walk's candidates in turn, as tuples of (frame, whether it
    satisfies the condition)."""
    earlier = []  # the walked frames a new frame is paired with
    for key in box_frames(max_size, max_size):
        fr = box_frame(key)
        new = fr, check_condition(condition, fr)[0]
        if construction in ("filter-ideal", "pmorphic-image"):
            yield (new,)
        elif construction == "generated-subframe" or new[1]:  # coproduct: frames that hold
            yield new, new
            for old in earlier:
                yield old, new
                if construction == "generated-subframe":
                    yield new, old
            earlier.append(new)
