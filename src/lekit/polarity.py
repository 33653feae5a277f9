"""Polarities (two-sorted incidence structures) and their concept lattices.

A polarity is (W, U, N) with N a relation from W to U.  Subsets of W and U
are represented as bit masks over the point index lists.  The maps up/down
form a Galois connection; a set is stable when closing it changes nothing.
Concepts are stable pairs (extent, intent).
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .bitset import meet_each, meet_rows, names_of
from .errors import CapExceededError, FormatError
from .reading import index_rows, name_ids

DEFAULT_CONCEPT_CAP = 1 << 16


class Polarity:
    """(W, U, N) over named points; w_ids and u_ids map names to indices."""

    def __init__(self, w_names, u_names, pairs):
        self._points(name_ids(w_names, "W point"), name_ids(u_names, "U point"))
        self._relate(pairs)

    @classmethod
    def on_ids(cls, w_ids, u_ids, pairs):
        """The polarity over names already checked by name_ids, given as the
        name -> index dicts it returned (shared, not copied)."""
        pol = cls.__new__(cls)
        pol._points(w_ids, u_ids)
        pol._relate(pairs)
        return pol

    def _points(self, w_ids, u_ids):
        self.w_ids = w_ids
        self.u_ids = u_ids
        self.w_names = tuple(w_ids)
        self.u_names = tuple(u_ids)
        self.nw = len(self.w_names)
        self.nu = len(self.u_names)
        self.full_w = (1 << self.nw) - 1
        self.full_u = (1 << self.nu) - 1

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


class Concept(NamedTuple):
    """A stable pair, as masks over W and U.

    A tuple: it sorts, hashes and compares equal as the pair (extent, intent).
    """

    extent: int
    intent: int

    def show(self, polarity):
        ext = "{" + ", ".join(names_of(self.extent, polarity.w_names)) + "}"
        itn = "{" + ", ".join(names_of(self.intent, polarity.u_names)) + "}"
        return f"({ext}, {itn})"


def meets(gens, top, cap):
    """top and the ANDs of every nonempty set of gens, as a set.

    Each gen ANDs into every mask found so far, so the set is closed under
    AND after each one; on a polarity's rows these are its intents, on its
    columns its extents.  Raises CapExceededError when more than cap are
    found.  Every mask in the set is in the final one, so it stays within
    2 * cap.
    """
    found = {top}
    for gen in gens:
        if len(found) > cap:
            break
        found.update([b & gen for b in found])
    if len(found) > cap:
        raise CapExceededError(
            f"more than {cap} concepts; raise --cap or LEKIT_CAP to proceed"
        )
    return found


def concept_pairs(polarity, cap=DEFAULT_CONCEPT_CAP):
    """All concepts of the polarity as plain (extent, intent) tuples,
    sorted by extent bit pattern.

    The extents are W and the ANDs of the columns of N, the intents U and
    the ANDs of its rows (Ganter and Wille).  So one side is found as the
    AND-closure of the lines of the smaller sort, the columns when
    nu <= nw and else the rows, with no closure per candidate, and its
    partners in one bitset.meet_each call.  cap bounds the number of
    concepts: CapExceededError is raised when there are more than cap.
    Every enumeration inside lekit goes through here.
    """
    if cap is None:
        cap = DEFAULT_CONCEPT_CAP
    pol = polarity
    if pol.nu <= pol.nw:
        extents = sorted(meets(pol.cols, pol.full_w, cap))
        return list(zip(extents, meet_each(pol.rows, extents, pol.full_u)))
    intents = list(meets(pol.rows, pol.full_u, cap))
    return sorted(zip(meet_each(pol.cols, intents, pol.full_w), intents))


def enumerate_concepts(polarity, cap=DEFAULT_CONCEPT_CAP):
    """concept_pairs as Concepts, for the public API and the CLI."""
    return as_concepts(concept_pairs(polarity, cap))


def as_concepts(pairs):
    """The (extent, intent) pairs as Concepts, in order.

    tuple.__new__ makes each in C, where Concept._make runs a Python frame
    per concept.
    """
    return list(map(tuple.__new__, repeat(Concept), pairs))
