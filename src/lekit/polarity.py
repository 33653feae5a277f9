"""Polarities (two-sorted incidence structures) and their concept lattices.

A polarity is (W, U, N) with N a relation from W to U.  Subsets of W and U
are represented as bit masks over the point index lists.  The maps up/down
form a Galois connection; a set is stable when closing it changes nothing.
Concepts are stable pairs (extent, intent).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import meet_rows, names_of
from .errors import CapExceededError, FormatError
from .reading import index_rows, name_ids

DEFAULT_CONCEPT_CAP = 1 << 16


class Polarity:
    """(W, U, N) over named points; w_ids and u_ids map names to indices."""

    def __init__(self, w_names, u_names, pairs):
        self.w_ids = name_ids(w_names, "W point")
        self.u_ids = name_ids(u_names, "U point")
        self.w_names = tuple(w_names)
        self.u_names = tuple(u_names)
        self.nw = len(self.w_names)
        self.nu = len(self.u_names)
        self.full_w = (1 << self.nw) - 1
        self.full_u = (1 << self.nu) - 1
        self._relate(pairs)

    def _relate(self, pairs):
        rows = [0] * self.nw
        cols = [0] * self.nu
        seen = set()
        for w, u in pairs:
            if not (0 <= w < self.nw and 0 <= u < self.nu):
                raise FormatError(f"N pair ({w}, {u}) out of range")
            rows[w] |= 1 << u
            cols[u] |= 1 << w
            seen.add((w, u))
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.pairs = frozenset(seen)

    @classmethod
    def from_names(cls, w_names, u_names, named_pairs):
        pol = cls(w_names, u_names, ())
        pol._relate(index_rows(named_pairs, (pol.w_ids, pol.u_ids), "point names in N"))
        return pol

    def n(self, w, u):
        return bool(self.rows[w] >> u & 1)

    def up(self, xmask):
        """All u related to every w in xmask."""
        return meet_rows(self.rows, xmask, self.full_u)

    def down(self, ymask):
        """All w related to every u in ymask."""
        return meet_rows(self.cols, ymask, self.full_w)

    def closure_w(self, xmask):
        return self.down(self.up(xmask))

    def closure_u(self, ymask):
        return self.up(self.down(ymask))

    def stable_w(self, xmask):
        return self.closure_w(xmask) == xmask

    def stable_u(self, ymask):
        return self.closure_u(ymask) == ymask

    def closure(self, mask, sort):
        return self.closure_w(mask) if sort == "W" else self.closure_u(mask)

    def stable(self, mask, sort):
        return self.closure(mask, sort) == mask

    def size(self, sort):
        return self.nw if sort == "W" else self.nu

    def full(self, sort):
        return self.full_w if sort == "W" else self.full_u

    def names(self, sort):
        return self.w_names if sort == "W" else self.u_names

    def w_index(self, name):
        try:
            return self.w_ids[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise FormatError(f"unknown W point {name!r}") from None

    def u_index(self, name):
        try:
            return self.u_ids[name]
        except (KeyError, TypeError):
            raise FormatError(f"unknown U point {name!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, Polarity)
            and self.w_names == other.w_names
            and self.u_names == other.u_names
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Polarity(|W|={self.nw}, |U|={self.nu}, |N|={len(self.pairs)})"


@dataclass(frozen=True, order=True)
class Concept:
    extent: int
    intent: int

    def show(self, polarity):
        ext = "{" + ", ".join(names_of(self.extent, polarity.w_names)) + "}"
        itn = "{" + ", ".join(names_of(self.intent, polarity.u_names)) + "}"
        return f"({ext}, {itn})"


def concept_of_w(polarity, w):
    """The concept generated by a single W point."""
    ext = polarity.closure_w(1 << w)
    return Concept(ext, polarity.up(ext))


def concept_of_u(polarity, u):
    """The concept generated by a single U point."""
    ext = polarity.down(1 << u)
    return Concept(ext, polarity.up(ext))


def _next_closures(close, n, cap):
    """The closed subsets of range(n) under close, in increasing mask order.

    Ganter's NextClosure: the successor of a closed set A is the first
    closure of (A above i) + {i}, over the bits i not in A from the lowest,
    that adds nothing above i.  Bit n-1 is the most significant, so the
    lectic order is the integer order of the masks.  Raises
    CapExceededError when a closed set beyond the first cap is reached.
    """
    found = []
    full = (1 << n) - 1
    a = close(0)
    while True:
        if len(found) >= cap:
            raise CapExceededError(
                f"more than {cap} concepts; raise --cap or LEKIT_CAP to proceed"
            )
        found.append(a)
        if a == full:
            return found
        for i in range(n):
            bit = 1 << i
            if a & bit:
                continue
            above = a & ~((bit << 1) - 1)
            b = close(above | bit)
            if b & ~a & ~(bit - 1) == bit:
                a = b
                break


def enumerate_concepts(polarity, cap=DEFAULT_CONCEPT_CAP):
    """All concepts of the polarity, sorted by extent bit pattern.

    Runs NextClosure over the smaller sort, so the work is at most
    min(|W|, |U|) closures per concept.  cap bounds the number of concepts
    found: CapExceededError is raised as soon as concept number cap + 1
    would be emitted.
    """
    if cap is None:
        cap = DEFAULT_CONCEPT_CAP
    if polarity.nw <= polarity.nu:
        extents = _next_closures(polarity.closure_w, polarity.nw, cap)
        return [Concept(e, polarity.up(e)) for e in extents]
    intents = _next_closures(polarity.closure_u, polarity.nu, cap)
    pairs = sorted((polarity.down(i), i) for i in intents)
    return [Concept(e, i) for e, i in pairs]
