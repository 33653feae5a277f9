"""Closure-condition falsifiers for frame-class definability arguments.

A frame class axiomatizable by sequents is closed under p-morphic
images, generated subframes and coproducts, and reflects filter-ideal
extensions.  Each falsifier exhibits a violation of one closure property
for a first order frame condition, showing the condition has no sequent
axiomatization.

Conditions apply to frames with a single unary connective whose relation
pairs a W point with a U point (either orientation); R below is read as
a subset of W x U.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constructions import coproduct, filter_ideal_extension
from .errors import FormatError, InvalidPMorphismError
from .frame import check_compatibility
from .morphism import check_pmorphism, is_injective, is_surjective
from .sampling import component_embedding, diagonal_surjection, random_box_frame


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


def falsify(condition, construction, frames, morphism=None, cap=None):
    """Check a closure violation witness for the given construction.

    coproduct: every component frame satisfies the condition but the
    coproduct does not.  pmorphic-image: a verified surjective p-morphism
    whose source satisfies it and target does not.  generated-subframe:
    a verified injective p-morphism whose target satisfies it and source
    does not.  filter-ideal: a frame whose filter-ideal extension
    satisfies it while the frame itself does not.
    """
    details = []
    if construction == "coproduct":
        for k, fr in enumerate(frames):
            holds, witness = check_condition(condition, fr)
            if not holds:
                details.append(f"component {k + 1} fails the condition: {witness}")
                return FalsifyReport(False, condition, construction, details)
            details.append(f"component {k + 1} satisfies the condition")
        cop = coproduct(frames)
        holds, witness = check_condition(condition, cop)
        if holds:
            details.append("the coproduct also satisfies the condition")
            return FalsifyReport(False, condition, construction, details)
        details.append(f"the coproduct fails it: {witness}")
        return FalsifyReport(True, condition, construction, details)

    if construction in ("pmorphic-image", "generated-subframe"):
        if morphism is None:
            raise FormatError(f"{construction} needs a morphism witness")
        report = check_pmorphism(morphism)
        if not report.passed:
            raise InvalidPMorphismError(report.message)
        if construction == "pmorphic-image":
            if not is_surjective(morphism, cap):
                details.append("the p-morphism is not surjective")
                return FalsifyReport(False, condition, construction, details)
            keeper, loser = morphism.source, morphism.target
            details.append("verified surjective p-morphism")
            roles = ("source", "image")
        else:
            if not is_injective(morphism, cap):
                details.append("the p-morphism is not injective")
                return FalsifyReport(False, condition, construction, details)
            keeper, loser = morphism.target, morphism.source
            details.append("verified injective p-morphism; the source is a generated subframe")
            roles = ("ambient frame", "subframe")
        holds, witness = check_condition(condition, keeper)
        if not holds:
            details.append(f"the {roles[0]} fails the condition: {witness}")
            return FalsifyReport(False, condition, construction, details)
        details.append(f"the {roles[0]} satisfies the condition")
        holds, witness = check_condition(condition, loser)
        if holds:
            details.append(f"the {roles[1]} also satisfies the condition")
            return FalsifyReport(False, condition, construction, details)
        details.append(f"the {roles[1]} fails it: {witness}")
        return FalsifyReport(True, condition, construction, details)

    if construction == "filter-ideal":
        (fr,) = frames
        ext = filter_ideal_extension(fr, cap)
        holds, witness = check_condition(condition, ext)
        if not holds:
            details.append(f"the filter-ideal extension fails the condition: {witness}")
            return FalsifyReport(False, condition, construction, details)
        details.append("the filter-ideal extension satisfies the condition")
        holds, witness = check_condition(condition, fr)
        if holds:
            details.append("the frame also satisfies the condition")
            return FalsifyReport(False, condition, construction, details)
        details.append(f"the frame fails it: {witness}")
        return FalsifyReport(True, condition, construction, details)

    raise FormatError(
        f"unknown construction {construction!r}; choose from {CONSTRUCTIONS}"
    )


def search_falsification(condition, construction, rng, max_size=3, tries=200, cap=None):
    """Bounded random search for a falsifying witness; None if not found."""
    if max_size < 1:
        raise FormatError(f"max_size must be at least 1, got {max_size}")
    for _ in range(tries):
        if construction == "coproduct":
            f1 = random_box_frame(rng, max_size, max_size)
            f2 = random_box_frame(rng, max_size, max_size)
            if not check_condition(condition, f1)[0]:
                continue
            if not check_condition(condition, f2)[0]:
                continue
            if not check_condition(condition, coproduct([f1, f2]))[0]:
                return falsify(condition, construction, [f1, f2])
        elif construction == "pmorphic-image":
            fr = random_box_frame(rng, max_size, max_size)
            pm, cop = diagonal_surjection(fr)
            if check_compatibility(cop).passed and check_condition(condition, cop)[0]:
                if not check_condition(condition, fr)[0]:
                    return falsify(condition, construction, [], morphism=pm, cap=cap)
        elif construction == "generated-subframe":
            f1 = random_box_frame(rng, max_size, max_size)
            f2 = random_box_frame(rng, max_size, max_size)
            pm, cop = component_embedding(f1, f2)
            if check_condition(condition, cop)[0] and not check_condition(condition, f1)[0]:
                return falsify(condition, construction, [], morphism=pm, cap=cap)
        elif construction == "filter-ideal":
            fr = random_box_frame(rng, max_size, max_size)
            ext = filter_ideal_extension(fr, cap)
            if check_condition(condition, ext)[0] and not check_condition(condition, fr)[0]:
                return falsify(condition, construction, [fr], cap=cap)
        else:
            raise FormatError(
                f"unknown construction {construction!r}; choose from {CONSTRUCTIONS}"
            )
    return None
