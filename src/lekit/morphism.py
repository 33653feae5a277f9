"""p-morphisms between frames and their dual algebra maps.

A p-morphism from a source frame to a target frame is a pair (S, T)
with S between source W points and target U points, and T between source
U points and target W points.  Both are held as polarities, S over
(source W, target U) and T over (source U, target W), so their sections
are the up and down maps: the S 0-section of a set of target U points is
S.down of it, the T 0-section of a set of target W points is T.down.

The dual sends a target concept a to the source concept whose extent is
the S 0-section of the intent of a; the T 0-section of the extent of a
closes down to the same extent (this is checked as a diagnostic), though
it need not itself be a closed intent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from .algebra import ComplexAlgebra, build_complex_algebra
from .bitset import bits, names_of
from .errors import FormatError, InvalidPMorphismError
from .frame import section_zero
from .polarity import Polarity, enumerate_concepts

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
        self.S = Polarity(sp.w_names, tp.u_names, s_pairs)
        self.T = Polarity(sp.u_names, tp.w_names, t_pairs)
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
    s_pairs = _index_pairs(data["S"], "S", sp.w_index, tp.u_index)
    t_pairs = _index_pairs(data["T"], "T", sp.u_index, tp.w_index)
    return PMorphism(source, target, s_pairs, t_pairs)


def _index_pairs(named_pairs, key, first, second):
    """The index pairs of a morphism file's S or T list of name pairs."""
    if not isinstance(named_pairs, (list, tuple)):
        raise FormatError(f"morphism file: {key!r} must be a list of pairs of point names")
    pairs = []
    for pair in named_pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise FormatError(f"{key} entry {pair!r} is not a pair of point names")
        pairs.append((first(pair[0]), second(pair[1])))
    return pairs


def load_morphism(path, source, target):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno})") from exc
    return morphism_from_dict(data, source, target)


@dataclass
class PMorphismReport:
    passed: bool
    condition: str = None
    witness: str = None

    @property
    def message(self):
        if self.passed:
            return "PASS: (S, T) is a p-morphism"
        return f"FAIL: condition {self.condition} violated: {self.witness}"

    def to_dict(self):
        out = {"passed": self.passed}
        if not self.passed:
            out.update(condition=self.condition, witness=self.witness)
        return out


def _show(mask, names):
    return "{" + ", ".join(names_of(mask, names)) + "}"


def check_pmorphism(pm, with_duality_diagnostic=True):
    """Check the p-morphism conditions, reporting the first violation.

    Checked in order: stability of the S sections (source and target
    side), stability of the T sections on the target side, the first
    back-and-forth inclusion, the section-pair identity at every target
    concept (a consequence of the definition, kept as a diagnostic), the
    second inclusion, and the relation conditions for every connective
    at all target point tuples.
    """
    sp = pm.source.polarity
    tp = pm.target.polarity

    for u in range(tp.nu):
        mask = pm.S.down(1 << u)
        if not sp.stable_w(mask):
            return PMorphismReport(
                False, "p2",
                f"S-0-section at {tp.u_names[u]} = {_show(mask, sp.w_names)} "
                "is not stable in the source",
            )
    for w in range(sp.nw):
        mask = pm.S.up(1 << w)
        if not tp.stable_u(mask):
            return PMorphismReport(
                False, "p2",
                f"S-1-section at {sp.w_names[w]} = {_show(mask, tp.u_names)} "
                "is not stable in the target",
            )
    for u in range(sp.nu):
        mask = pm.T.up(1 << u)
        if not tp.stable_w(mask):
            return PMorphismReport(
                False, "p3",
                f"T-1-section at {sp.u_names[u]} = {_show(mask, tp.w_names)} "
                "is not stable in the target",
            )
    for w in range(tp.nw):
        lhs = sp.down(pm.T.down(1 << w))
        rhs = pm.S.down(tp.up(1 << w))
        if lhs & ~rhs:
            return PMorphismReport(
                False, "p4",
                f"at {tp.w_names[w]}: the T-0-section closed down = {_show(lhs, sp.w_names)} "
                f"is not contained in {_show(rhs, sp.w_names)}",
            )
    if with_duality_diagnostic:
        for c in enumerate_concepts(tp):
            lhs = sp.down(pm.T.down(c.extent))
            rhs = pm.S.down(c.intent)
            if lhs != rhs:
                return PMorphismReport(
                    False, "duality diagnostic",
                    f"at concept {c.show(tp)}: (T-0-section of the extent) closed down "
                    f"= {_show(lhs, sp.w_names)} differs from the S-0-section of the "
                    f"intent {_show(rhs, sp.w_names)}",
                )
    for w in range(sp.nw):
        lhs = pm.T.down(tp.down(pm.S.up(1 << w)))
        rhs = sp.rows[w]
        if lhs & ~rhs:
            return PMorphismReport(
                False, "p5",
                f"at {sp.w_names[w]}: T-0-section of the closed S-1-section "
                f"= {_show(lhs, sp.u_names)} exceeds the up-set {_show(rhs, sp.u_names)}",
            )

    for conn in pm.source.signature.connectives:
        src_rel = pm.source.relations[conn.name]
        tgt_rel = pm.target.relations[conn.name]
        coord_ranges = [
            range(tp.size(s)) for s in tgt_rel.sorts[1:]
        ]
        for tup in product(*coord_ranges):
            if conn.family == "F":
                lhs = pm.T.down(tp.down(section_zero(tgt_rel, tuple(1 << v for v in tup))))
                args = []
                for v, e in zip(tup, conn.order_type):
                    if e == "1":
                        args.append(sp.down(pm.T.down(1 << v)))
                    else:
                        args.append(sp.up(pm.S.down(1 << v)))
                rhs = section_zero(src_rel, tuple(args))
                cond = "p6"
                side_names = sp.u_names
            else:
                lhs = pm.S.down(tp.up(section_zero(tgt_rel, tuple(1 << v for v in tup))))
                args = []
                for v, e in zip(tup, conn.order_type):
                    if e == "1":
                        args.append(sp.up(pm.S.down(1 << v)))
                    else:
                        args.append(sp.down(pm.T.down(1 << v)))
                rhs = section_zero(src_rel, tuple(args))
                cond = "p7"
                side_names = sp.w_names
            if lhs != rhs:
                pts = tuple(
                    tp.names(s)[v] for v, s in zip(tup, tgt_rel.sorts[1:])
                )
                return PMorphismReport(
                    False, cond,
                    f"connective {conn.name!r} at ({', '.join(pts)}): "
                    f"{_show(lhs, side_names)} != {_show(rhs, side_names)}",
                )

    return PMorphismReport(True)


@dataclass
class DualHom:
    """A complete homomorphism from the target's algebra to the source's.

    mapping[i] is the index in cod of the image of dom's concept i.
    raw_extents / raw_intents keep the section pair used to build each
    image; the raw intent can differ from the image concept's intent, and
    dualizing uses it to reproduce T exactly.
    """

    mapping: tuple
    dom: object
    cod: object
    raw_extents: tuple = field(default=None)
    raw_intents: tuple = field(default=None)


def dual_hom(pm, check=True, cap=None):
    """The dual algebra map of a p-morphism.

    Returns a DualHom from the target frame's complex algebra to the
    source frame's.
    """
    if check:
        report = check_pmorphism(pm)
        if not report.passed:
            raise InvalidPMorphismError(report.message)
    dom = build_complex_algebra(pm.target, cap=cap, check=False)
    cod = build_complex_algebra(pm.source, cap=cap, check=False)
    mapping = []
    raw_ext = []
    raw_int = []
    for c in dom.concepts:
        ext = pm.S.down(c.intent)
        itn = pm.T.down(c.extent)
        try:
            mapping.append(cod.index_of_extent(ext))
        except KeyError:
            raise InvalidPMorphismError(
                f"image extent of {c.show(pm.target.polarity)} is not a concept extent"
            ) from None
        raw_ext.append(ext)
        raw_int.append(itn)
    return DualHom(tuple(mapping), dom, cod, tuple(raw_ext), tuple(raw_int))


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
    sp = src.polarity
    s_pairs = set()
    t_pairs = set()
    for u in range(tp.nu):
        ext = tp.down(1 << u)
        idx = hom.mapping[hom.dom.index_of_extent(ext)]
        image_ext = (
            hom.raw_extents[hom.dom.index_of_extent(ext)]
            if hom.raw_extents is not None
            else hom.cod.concepts[idx].extent
        )
        for w in bits(image_ext):
            s_pairs.add((w, u))
    for w in range(tp.nw):
        ext = tp.closure_w(1 << w)
        i = hom.dom.index_of_extent(ext)
        image_int = (
            hom.raw_intents[i]
            if hom.raw_intents is not None
            else hom.cod.concepts[hom.mapping[i]].intent
        )
        for u in bits(image_int):
            t_pairs.add((u, w))
    return PMorphism(src, tgt, s_pairs, t_pairs)


def is_surjective(pm, cap=None):
    """Distinct target concepts have distinct S-section extents."""
    seen = set()
    for c in enumerate_concepts(pm.target.polarity, cap):
        ext = pm.S.down(c.intent)
        if ext in seen:
            return False
        seen.add(ext)
    return True


def is_injective(pm, cap=None):
    """Every source concept extent is an S-section of some target concept."""
    images = {pm.S.down(c.intent) for c in enumerate_concepts(pm.target.polarity, cap)}
    return all(
        c.extent in images for c in enumerate_concepts(pm.source.polarity, cap)
    )
