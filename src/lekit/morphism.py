"""p-morphisms between frames and their dual algebra maps.

A p-morphism from a source frame to a target frame is a pair (S, T)
with S between source W points and target U points, and T between source
U points and target W points.  Both are held as polarities, S over
(source W, target U) and T over (source U, target W), so their sections
are the up and down maps: the S 0-section of a set of target U points is
S.down of it, the T 0-section of a set of target W points is T.down.  At
one point either section is a read: a column (0-section) or a row.  The
relation conditions p6/p7 read the source's sections at the images of
all target point tuples from one frame.section_table per connective.

The dual sends a target concept a to the source concept whose extent is
the S 0-section of the intent of a, its S-image; the T 0-section of the
extent of a closes down to the same extent (this is checked as a
diagnostic), though it need not itself be a closed intent.  A check
enumerates the target's concepts once, and their S-images also say
whether the p-morphism is surjective and injective; dual_hom checks on
the concepts of the target algebra it builds, one for an endomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product

from .algebra import ComplexAlgebra, build_complex_algebra
from .bitset import bits, names_of
from .errors import FormatError, InvalidPMorphismError
from .frame import point_sections, section_table
from .polarity import Concept, Polarity, concept_pairs
from .reading import index_rows, read_json


class PMorphism:
    def __init__(self, source, target, s_pairs, t_pairs):
        if source.signature != target.signature:
            raise FormatError("source and target frames have different signatures")
        self.source = source
        self.target = target
        sp = source.polarity
        tp = target.polarity
        s_pairs = frozenset((int(w), int(u)) for w, u in s_pairs)
        t_pairs = frozenset((int(u), int(w)) for u, w in t_pairs)
        for w, u in s_pairs:
            if not (0 <= w < sp.nw and 0 <= u < tp.nu):
                raise FormatError(f"S pair ({w}, {u}) out of range")
        for u, w in t_pairs:
            if not (0 <= u < sp.nu and 0 <= w < tp.nw):
                raise FormatError(f"T pair ({u}, {w}) out of range")
        self.S = Polarity.on_ids(sp.w_ids, tp.u_ids, s_pairs)
        self.T = Polarity.on_ids(sp.u_ids, tp.w_ids, t_pairs)
        self.s_pairs = self.S.pairs
        self.t_pairs = self.T.pairs

    def to_dict(self):
        sp, tp = self.source.polarity, self.target.polarity
        return {
            "S": sorted([sp.w_names[w], tp.u_names[u]] for w, u in self.s_pairs),
            "T": sorted([sp.u_names[u], tp.w_names[w]] for u, w in self.t_pairs),
        }


def morphism_from_dict(data, source, target):
    if not isinstance(data, dict) or "S" not in data or "T" not in data:
        raise FormatError("morphism file must be an object with 'S' and 'T' lists")
    sp, tp = source.polarity, target.polarity
    s_pairs = index_rows(data["S"], (sp.w_ids, tp.u_ids), "point names in S")
    t_pairs = index_rows(data["T"], (sp.u_ids, tp.w_ids), "point names in T")
    return PMorphism(source, target, s_pairs, t_pairs)


def load_morphism(path, source, target):
    return morphism_from_dict(read_json(path), source, target)


@dataclass
class PMorphismReport:
    """A p-morphism check; a pass also says whether the map is onto and one-to-one."""

    passed: bool
    condition: str = None
    witness: str = None
    surjective: bool = None
    injective: bool = None

    @property
    def message(self):
        if self.passed:
            return (
                "PASS: (S, T) is a p-morphism\n"
                f"surjective: {self.surjective}\ninjective: {self.injective}"
            )
        return f"FAIL: condition {self.condition} violated: {self.witness}"

    def to_dict(self):
        if self.passed:
            return {"passed": True, "surjective": self.surjective, "injective": self.injective}
        return {"passed": False, "condition": self.condition, "witness": self.witness}


def _show(mask, names):
    return "{" + ", ".join(names_of(mask, names)) + "}"


def _images(pm, concepts):
    """The S-image of each target (extent, intent) pair: the S-0-section of its intent."""
    return [pm.S.down(intent) for _, intent in concepts]


def _onto(images):
    """Distinct target concepts have distinct S-images."""
    return len(set(images)) == len(images)


def _one_to_one(pm, images):
    """Every source concept is an S-image.  The images of a p-morphism's
    dual map are closed under joins and a concept is the join of its W
    points' concepts, so the extents of those (down of a row) decide it."""
    images = set(images)
    sp = pm.source.polarity
    return all(sp.down(row) in images for row in sp.rows)


def check_pmorphism(pm, cap=None):
    """Check the p-morphism conditions, reporting the first violation.

    Checked in order: stability of the S sections (source and target
    side), stability of the T sections on the target side, the first
    back-and-forth inclusion, the section-pair identity at every target
    concept (a consequence of the definition, kept as a diagnostic), the
    second inclusion, and the relation conditions for every connective
    at all target point tuples.  The target's concepts are enumerated
    first, once, under cap, and a pass reports from their S-images whether
    the map is surjective and injective.
    """
    concepts = concept_pairs(pm.target.polarity, cap)
    images = _images(pm, concepts)
    return _fault(pm, concepts, images) or PMorphismReport(
        True, surjective=_onto(images), injective=_one_to_one(pm, images)
    )


def _fault(pm, concepts, images):
    """check_pmorphism's failing report or None, on the target's concept pairs."""
    sp = pm.source.polarity
    tp = pm.target.polarity

    for u in range(tp.nu):
        mask = pm.S.cols[u]
        if not sp.stable_w(mask):
            return PMorphismReport(
                False, "p2",
                f"S-0-section at {tp.u_names[u]} = {_show(mask, sp.w_names)} "
                "is not stable in the source",
            )
    for w in range(sp.nw):
        mask = pm.S.rows[w]
        if not tp.stable_u(mask):
            return PMorphismReport(
                False, "p2",
                f"S-1-section at {sp.w_names[w]} = {_show(mask, tp.u_names)} "
                "is not stable in the target",
            )
    for u in range(sp.nu):
        mask = pm.T.rows[u]
        if not tp.stable_w(mask):
            return PMorphismReport(
                False, "p3",
                f"T-1-section at {sp.u_names[u]} = {_show(mask, tp.w_names)} "
                "is not stable in the target",
            )
    # T's columns closed down in the source: p4's left sides, and how a
    # target W point goes over for p6/p7
    closed = [sp.down(col) for col in pm.T.cols]
    for w, lhs in enumerate(closed):
        rhs = pm.S.down(tp.rows[w])
        if lhs & ~rhs:
            return PMorphismReport(
                False, "p4",
                f"at {tp.w_names[w]}: the T-0-section closed down = {_show(lhs, sp.w_names)} "
                f"is not contained in {_show(rhs, sp.w_names)}",
            )
    for (extent, intent), rhs in zip(concepts, images):
        lhs = sp.down(pm.T.down(extent))
        if lhs != rhs:
            return PMorphismReport(
                False, "duality diagnostic",
                f"at concept {Concept(extent, intent).show(tp)}: (T-0-section of the "
                f"extent) closed down = {_show(lhs, sp.w_names)} differs from the "
                f"S-0-section of the intent {_show(rhs, sp.w_names)}",
            )
    for w in range(sp.nw):
        lhs = pm.T.down(tp.down(pm.S.rows[w]))
        rhs = sp.rows[w]
        if lhs & ~rhs:
            return PMorphismReport(
                False, "p5",
                f"at {sp.w_names[w]}: T-0-section of the closed S-1-section "
                f"= {_show(lhs, sp.u_names)} exceeds the up-set {_show(rhs, sp.u_names)}",
            )

    # each target point goes over through T (sort W) or S (sort U), and
    # the target section goes back through T (head U) or S (head W)
    over = {"W": closed, "U": [sp.up(col) for col in pm.S.cols]}
    for conn in pm.source.signature.connectives:
        src_rel = pm.source.relations[conn.name]
        tgt_rel = pm.target.relations[conn.name]
        head, *coords = tgt_rel.sorts
        rhs_all = section_table(src_rel, [over[s] for s in coords])
        for k, (section, rhs) in enumerate(zip(point_sections(tgt_rel, 0), rhs_all)):
            lhs = pm.T.down(tp.down(section)) if head == "U" else pm.S.down(tp.up(section))
            if lhs != rhs:
                tuples = product(*(range(tp.size(s)) for s in coords))
                tup = next(islice(tuples, k, None))
                pts = tuple(tp.names(s)[v] for v, s in zip(tup, coords))
                side_names = sp.names(head)
                return PMorphismReport(
                    False, "p6" if head == "U" else "p7",
                    f"connective {conn.name!r} at ({', '.join(pts)}): "
                    f"{_show(lhs, side_names)} != {_show(rhs, side_names)}",
                )

    return None


@dataclass
class DualHom:
    """A complete homomorphism from the target's algebra to the source's.

    mapping[i] is the index in cod of the image of dom's concept i, whose
    extent is the S-0-section of concept i's intent.  raw_intents keeps
    the T-0-section of each concept's extent; it can differ from the image
    concept's intent, and dualizing uses it to reproduce T exactly.
    """

    mapping: tuple
    dom: object
    cod: object
    raw_intents: tuple = field(default=None)


def dual_hom(pm, cap=None):
    """The dual algebra map of a p-morphism.

    Builds the target frame's complex algebra, checks the p-morphism on
    its concepts (InvalidPMorphismError if it fails), and returns a
    DualHom from it to the source frame's, itself for an endomorphism.
    """
    dom = build_complex_algebra(pm.target, cap=cap, check=False)
    images = _images(pm, dom.pairs)
    fault = _fault(pm, dom.pairs, images)
    if fault:
        raise InvalidPMorphismError(fault.message)
    same = pm.source is pm.target
    cod = dom if same else build_complex_algebra(pm.source, cap=cap, check=False)
    raw_intents = tuple(pm.T.down(extent) for extent, _ in dom.pairs)
    return DualHom(tuple(map(cod.index_of_extent, images)), dom, cod, raw_intents)


def dual_pmorphism(hom):
    """The dual p-morphism of an algebra map between complex algebras.

    hom maps the complex algebra of a frame (dom) to that of another
    frame (cod); the result goes from cod's frame to dom's frame.
    """
    if not isinstance(hom.dom, ComplexAlgebra) or not isinstance(hom.cod, ComplexAlgebra):
        raise FormatError("dual_pmorphism needs complex algebras on both sides")
    tgt = hom.dom.frame
    src = hom.cod.frame
    tp = tgt.polarity
    cod_pairs = hom.cod.pairs
    s_pairs = set()
    t_pairs = set()
    for u in range(tp.nu):
        i = hom.dom.index_of_extent(tp.cols[u])
        for w in bits(cod_pairs[hom.mapping[i]][0]):
            s_pairs.add((w, u))
    for w in range(tp.nw):
        i = hom.dom.index_of_extent(tp.down(tp.rows[w]))
        image_int = (
            hom.raw_intents[i] if hom.raw_intents is not None else cod_pairs[hom.mapping[i]][1]
        )
        for u in bits(image_int):
            t_pairs.add((u, w))
    return PMorphism(src, tgt, s_pairs, t_pairs)


def is_surjective(pm, cap=None):
    """Distinct target concepts have distinct S-section extents."""
    return _onto(_images(pm, concept_pairs(pm.target.polarity, cap)))


def is_injective(pm, cap=None):
    """Every source concept extent is an S-section of some target concept.

    For p-morphisms only: it reads the source W points' concepts alone.
    """
    return _one_to_one(pm, _images(pm, concept_pairs(pm.target.polarity, cap)))
