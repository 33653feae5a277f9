"""Frames: a polarity plus one sorted relation per connective.

For a family-F connective of order type e the relation lives on
U x W^e, where coordinate i has sort W when e[i] == "1" and sort U when
e[i] == "d".  Family-G relations live on W x U^e with the sorts swapped.
connective_sorts is the one place that reads this off a connective; the
code elsewhere goes by the sorts alone.

Sections generalise the Galois maps: the j-section collects the points
at coordinate j related to everything in a tuple of argument sets at the
other coordinates.  The 0-section reads heads, the i-section (i >= 1)
reads coordinate i with the head among the arguments.  Each is read from
a row index of the relation for head coordinate j, built on first use.
Compatibility asks all point-tuple sections to be stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice, product
from math import prod

from .bitset import bits, lane_bytes, meet_each, meet_rows, names_of, pack_columns, split
from .errors import CapExceededError, FormatError, IncompatibleFrameError, SortError
from .polarity import Polarity
from .reading import index_rows, read_json
from .syntax import signature_from_dict

ALT_COMBO_CAP = 1 << 22


def connective_sorts(conn):
    """The coordinate sorts (head first) of the relation for a connective."""
    if conn.family == "F":
        return ("U",) + tuple("W" if e == "1" else "U" for e in conn.order_type)
    return ("W",) + tuple("U" if e == "1" else "W" for e in conn.order_type)


class Relation:
    """An (n+1)-ary sorted relation with the head at coordinate 0.

    rows[j] is its row index for head coordinate j, built on first use:
    rows[j][prefix][v] holds the points at coordinate j related to prefix +
    (v,) at the other coordinates in order, where prefix covers all of them
    but the last and v is the last one.  Arity 0 keeps its heads in one row
    at a single phantom coordinate.
    """

    def __init__(self, sorts, sizes, tuples):
        self.sorts = tuple(sorts)
        self.sizes = tuple(sizes)
        self.arity = len(self.sorts) - 1
        tuples = frozenset(tuple(t) for t in tuples)
        for t in tuples:
            if len(t) != self.arity + 1:
                raise FormatError(f"relation tuple {t} has wrong length")
            for v, size in zip(t, self.sizes):
                if not 0 <= v < size:
                    raise FormatError(f"relation tuple {t} out of range")
        self.tuples = tuples
        self.rows = _RowIndex(tuples, self.sizes)

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.sorts == other.sorts
            and self.sizes == other.sizes
            and self.tuples == other.tuples
        )


class _RowIndex(dict):
    """The row indices of a relation by head coordinate, each built when
    first looked up (see Relation)."""

    __slots__ = ("tuples", "sizes")

    def __init__(self, tuples, sizes):
        self.tuples = tuples
        self.sizes = sizes

    def __missing__(self, j):
        arity = len(self.sizes) - 1
        if not 0 <= j <= arity:
            raise SortError(f"no coordinate {j} in a relation of arity {arity}")
        width = self.sizes[-1 if j < arity else -2] if arity else 1
        rows = self[j] = {}
        for t in self.tuples:
            others = t[:j] + t[j + 1 :]
            prefix = others[:-1]
            row = rows.get(prefix)
            if row is None:
                row = rows[prefix] = [0] * width
            row[others[-1] if others else 0] |= 1 << t[j]
        return rows


def section_zero(rel, args):
    """Heads related to every tuple in the product of the argument masks.

    With an empty product this is the full head sort.
    """
    return _section_at(rel, 0, args)


def _section_at(rel, j, args):
    """The j-section: points at coordinate j related to every tuple in the
    product of args, the masks at the other coordinates in order.

    With an empty product this is the full sort of coordinate j.
    """
    if len(args) != rel.arity:
        raise SortError(f"expected {rel.arity} argument sets, got {len(args)}")
    rows = rel.rows[j]
    acc = (1 << rel.sizes[j]) - 1
    *outer, last = args or (1,)  # arity 0: select the phantom coordinate
    if not last:
        return acc
    for prefix in product(*(tuple(bits(a)) for a in outer)):
        row = rows.get(prefix)
        if row is None:
            return 0
        acc = meet_rows(row, last, acc)
        if not acc:
            break
    return acc


def point_sections(rel, j):
    """The j-section of every tuple of points at the coordinates other than
    j, in product order.  Each is one entry of the row index, 0 when the
    tuple's prefix has no row."""
    rows = rel.rows[j]
    others = rel.sizes[:j] + rel.sizes[j + 1 :] or (1,)  # arity 0: the phantom coordinate
    zero = [0] * others[-1]
    out = []
    for prefix in product(*map(range, others[:-1])):
        out += rows.get(prefix, zero)
    return out


def section_table(rel, reads):
    """[section_zero(rel, args) for args in product(*reads)], where reads[k]
    lists the masks at coordinate k + 1.

    Folds the coordinates from the last, starting from the point sections.
    Before the fold of coordinate j, the table holds the section at every
    tuple of points at coordinates 1..j and of masks at the coordinates
    already folded, the mask tuples outermost.  The fold packs, for each
    point v at j, the sections at v of all the other tuples side by side
    in one int, each in a lane at least as wide as the head sort
    (bitset.pack_columns).  ANDs do not carry between lanes, so one
    meet_each over those ints computes the sections of all the tuples at
    once, and bitset.split lays them out for the next fold.  Where an int
    would hold one lane, as in every fold of a unary relation, the fold
    reads the table as it is.  A prefix with no row reads as 0 and an
    empty mask as the full head sort, as in _section_at.
    """
    table = point_sections(rel, 0)
    if not rel.arity:
        return table
    full = (1 << rel.sizes[0]) - 1
    tuples = 1  # of the masks at the coordinates folded so far
    for j in range(rel.arity, 0, -1):
        size, masks = rel.sizes[j], reads[j - 1]
        count = prod(rel.sizes[1:j]) * tuples  # lanes a packed int holds
        if count == 1:
            table = meet_each(table, masks, full)
        else:
            lane = lane_bytes(rel.sizes[0])
            rows = pack_columns(table, size, lane)
            (full_lanes,) = pack_columns([full] * count, 1, lane)
            table = split(meet_each(rows, masks, full_lanes), count, lane)
        tuples *= len(masks)
    return table


class Frame:
    def __init__(self, polarity, signature, relations):
        self.polarity = polarity
        self.signature = signature
        rels = {}
        for conn in signature.connectives:
            if conn.name not in relations:
                raise FormatError(f"missing relation for connective {conn.name!r}")
            rel = relations[conn.name]
            expected = connective_sorts(conn)
            sizes = tuple(polarity.size(s) for s in expected)
            if rel.sorts != expected or rel.sizes != sizes:
                raise SortError(f"relation for {conn.name!r} has wrong sorts or sizes")
            rels[conn.name] = rel
        extra = set(relations) - set(rels)
        if extra:
            raise FormatError(f"relations with no matching connective: {sorted(extra)}")
        self.relations = rels

    def __eq__(self, other):
        return (
            isinstance(other, Frame)
            and self.polarity == other.polarity
            and self.signature == other.signature
            and self.relations == other.relations
        )

    def to_dict(self):
        pol = self.polarity
        out = {
            "signature": self.signature.to_dict(),
            "W": list(pol.w_names),
            "U": list(pol.u_names),
            "N": sorted(
                [pol.w_names[w], pol.u_names[u]] for w, u in pol.pairs
            ),
            "relations": {},
        }
        for conn in self.signature.connectives:
            rel = self.relations[conn.name]
            named = []
            for t in rel.tuples:
                named.append([pol.names(s)[v] for v, s in zip(t, rel.sorts)])
            out["relations"][conn.name] = sorted(named)
        return out


def make_relation(frame_polarity, conn, named_tuples):
    pol = frame_polarity
    sorts = connective_sorts(conn)
    tuples = index_rows(
        named_tuples,
        [pol.w_ids if s == "W" else pol.u_ids for s in sorts],
        f"point names in relation {conn.name!r}",
    )
    return Relation(sorts, tuple(pol.size(s) for s in sorts), tuples)


def frame_from_dict(data):
    if not isinstance(data, dict):
        raise FormatError("frame file must be a JSON object")
    for key in ("signature", "W", "U", "N"):
        if key not in data:
            raise FormatError(f"frame file missing key {key!r}")
    signature = signature_from_dict(data["signature"])
    polarity = Polarity.from_names(data["W"], data["U"], data["N"])
    raw_rels = data.get("relations", {})
    if not isinstance(raw_rels, dict):
        raise FormatError("frame file: 'relations' must be an object")
    relations = {
        conn.name: make_relation(polarity, conn, raw_rels.get(conn.name, []))
        for conn in signature.connectives
    }
    extra = set(raw_rels) - {c.name for c in signature.connectives}
    if extra:
        raise FormatError(f"relations with no matching connective: {sorted(extra)}")
    return Frame(polarity, signature, relations)


def load_frame(path, check=True):
    frame = frame_from_dict(read_json(path))
    if check:
        report = check_compatibility(frame)
        if not report.passed:
            raise IncompatibleFrameError(f"{path}: {report.message}")
    return frame


def save_frame(frame, path):
    with open(path, "w") as fh:
        json.dump(frame.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class CompatibilityReport:
    passed: bool
    connective: str = None
    section: str = None
    points: tuple = ()
    found: tuple = ()
    expected: tuple = ()

    @property
    def message(self):
        if self.passed:
            return "PASS: all sections stable"
        return (
            f"FAIL: connective {self.connective!r}, {self.section} at "
            f"({', '.join(self.points)}) gives {{{', '.join(self.found)}}} "
            f"but closure is {{{', '.join(self.expected)}}}"
        )

    def to_dict(self):
        out = {"passed": self.passed}
        if not self.passed:
            out.update(
                connective=self.connective,
                section=self.section,
                points=list(self.points),
                found=list(self.found),
                closure=list(self.expected),
            )
        return out


def _point_names(polarity, sorts, tup):
    return tuple(polarity.names(s)[v] for v, s in zip(tup, sorts))


def check_compatibility(frame):
    """Check stability of all point-tuple sections of every relation.

    Coordinate by coordinate, from the head, over the point tuples at the
    other coordinates in product order.  Sections repeat a few masks many
    times, so each coordinate closes its distinct masks in the order they
    first occur, and each sort keeps the masks this call has found stable.
    The first unstable mask is then that of the first failing tuple.
    """
    pol = frame.polarity
    stable = {"W": set(), "U": set()}
    for conn in frame.signature.connectives:
        rel = frame.relations[conn.name]
        for j, sort in enumerate(rel.sorts):
            sections = point_sections(rel, j)
            seen = stable[sort]
            for mask in dict.fromkeys(sections):
                if mask in seen:
                    continue
                if not pol.stable(mask, sort):
                    other_sorts = rel.sorts[:j] + rel.sorts[j + 1 :]
                    tuples = product(*(range(pol.size(s)) for s in other_sorts))
                    tup = next(islice(tuples, sections.index(mask), None))
                    return CompatibilityReport(
                        False,
                        conn.name,
                        f"{j}-section",
                        _point_names(pol, other_sorts, tup),
                        names_of(mask, pol.names(sort)),
                        names_of(pol.closure(mask, sort), pol.names(sort)),
                    )
                seen.add(mask)
    return CompatibilityReport(True)


def check_compatibility_alt(frame):
    """Equivalent compatibility test via closure invariance of sections.

    For every tuple of argument sets, every coordinate i and every other
    coordinate j, closing the i-th set must not change the j-section.
    Quantifies over all subsets of each coordinate sort, so only suitable
    for small frames.
    """
    pol = frame.polarity
    for conn in frame.signature.connectives:
        rel = frame.relations[conn.name]
        n = rel.arity + 1
        sizes = [pol.size(s) for s in rel.sorts]
        total = 1
        for s in sizes:
            total <<= s
        if total * n * n > ALT_COMBO_CAP:
            raise CapExceededError(
                f"alternative compatibility check needs {total * n * n} section "
                f"comparisons, cap is {ALT_COMBO_CAP}"
            )
        if not rel.arity:  # no coordinate to close: the heads must be stable
            heads = _section_at(rel, 0, ())
            if not pol.stable(heads, rel.sorts[0]):
                names = pol.names(rel.sorts[0])
                return CompatibilityReport(
                    False,
                    conn.name,
                    "0-section",
                    (),
                    names_of(heads, names),
                    names_of(pol.closure(heads, rel.sorts[0]), names),
                )
        for masks in product(*(range(1 << s) for s in sizes)):
            for i in range(n):
                closed = pol.closure(masks[i], rel.sorts[i])
                if closed == masks[i]:
                    continue
                varied = masks[:i] + (closed,) + masks[i + 1 :]
                for j in range(n):
                    if j == i:
                        continue
                    lhs = _section_at(rel, j, masks[:j] + masks[j + 1 :])
                    rhs = _section_at(rel, j, varied[:j] + varied[j + 1 :])
                    if lhs != rhs:
                        names = tuple(
                            "{" + ", ".join(names_of(m, pol.names(s))) + "}"
                            for m, s in zip(masks, rel.sorts)
                        )
                        return CompatibilityReport(
                            False,
                            conn.name,
                            f"{j}-section changes when closing coordinate {i}",
                            names,
                            names_of(lhs, pol.names(rel.sorts[j])),
                            names_of(rhs, pol.names(rel.sorts[j])),
                        )
    return CompatibilityReport(True)
