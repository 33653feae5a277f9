"""Finite bounded lattices with normal operations, and complex algebras.

A FiniteAlgebra keeps its order only as bit masks: above[i] and below[i]
hold the elements above and below element i.  The order checks are mask
operations over the comparable pairs, and meet[i][j] is the element whose
below-mask is below[i] & below[j] (join likewise from the above-masks),
found through a dict from masks to elements; when there is none, the pair
has no meet (join) and the order is not a lattice.  The meet and join
tables are filled on first access.  An operation table is one flat tuple,
tables[name], in product order: a k-ary operation on n elements has its
value at (a_0, ..., a_{k-1}) at (a_0 * n + a_1) * n + ... + a_{k-1}, so
coordinate i has stride n**(k-1-i).  ops, the same tables as dicts keyed
by argument tuples, is a read-only view built on first read.

An algebra given by the user (FiniteAlgebra(...), from_cones,
algebra_from_dict) has its order checked and fills both tables while it
is built, so an order that is not a partial order or not a lattice is
refused there, and its operation tables, given as dicts, are checked and
read into flat tuples.  Complex algebras and products, lattices by
construction, skip the order and op-table checks, keep the flat tables
lekit built for them as they are, and leave the meet and join
tables unfilled until something reads them (algebra validity, the
witness search of a failing normality check); their element names, too,
are built on first read (messages, to_dict, the CLI).  The n x n bool
matrix leq is a read-only view derived from the masks on first access;
building an algebra never makes it, and algebra validity reads it as its
order table, since indexing it is the cheapest order test per valuation.

The complex algebra of a compatible frame has the concept lattice as
carrier, and ComplexAlgebra builds it from the frame alone, taking no
concepts or tables.  A build does only what it must do at once: it
enumerates the concepts under the cap and builds the operation tables,
so CapExceededError and IncompatibleFrameError come from the build.  The
concepts come sorted by extent, and extent inclusion implies <, so bot
is the first and top the last.  The cones, the Concepts and the element
names wait for a reader.  The cones come from the concept-by-point
incidence, itself a polarity, through the section kernel (meet_each) over
the incidence's columns: the concepts above a concept are those whose
extents hold all of its extent, those below it are those whose intents
hold all of its intent.  A connective reads its relation by its coordinates'
sorts: the argument's extent at W, its intent at U.  The 0-section of
those masks is the extent of the value when the head has sort W (family
G) and its intent when the head has sort U (family F).  The operation
tables go through the section kernel too: frame.section_table folds the
relation's point sections one coordinate at a time, with one meet_each
per coordinate over ints that pack the sections of all argument tuples
side by side.

verify_normality answers for the complex algebra of a compatible frame
from the frame alone, by the lemma its docstring states.  Any other
algebra it checks for residuation column by column, each column a
slice of its flat table.  A column is residuated when
the OR of the preimages over each cone is a principal cone; that OR
depends only on the cone's cut by the column's image, so it is taken
once per distinct cut.  A box column often has an image of a few
elements, so a few ORs stand for hundreds of cones.  The set of
principal cones is built only for the cones a column compares with, so
scanning a box algebra, whose columns gather and compare up-cones, never
computes its down-cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from types import MappingProxyType

from .bitset import bits, meet_each, transpose
from .errors import (
    FormatError,
    IncompatibleFrameError,
    NotALatticeError,
)
from .frame import check_compatibility, section_table
from .polarity import DEFAULT_CONCEPT_CAP, as_concepts, concept_pairs
from .reading import index_rows, name_ids, read_json
from .syntax import signature_from_dict


class _lazy:
    """An attribute computed on its first read and stored in the instance's
    __dict__, where later reads find it before this descriptor.  Unlike
    functools.cached_property (Python 3.11), a first read takes no lock."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class FiniteAlgebra:
    """A bounded lattice given by its order, plus one operation per connective.

    FiniteAlgebra(names, leq, signature, ops) takes the order as an n x n
    bool matrix; from_cones takes it as the above/below masks directly.
    Both check that the order is a partial order, fill the tables, and
    validate the operations (dicts from argument tuples to values);
    from_cones(..., lattice=True) takes flat tables and skips the checks
    and the tables for an algebra that lekit built as a lattice.  names
    is a sequence, or a function of no arguments that returns one, called
    on the first read of names.
    """

    def __init__(self, names, leq, signature, ops):
        names = tuple(names)
        n = len(names)
        if len(leq) != n or any(len(row) != n for row in leq):
            raise FormatError("leq matrix has wrong shape")
        powers = [1 << j for j in range(n)]
        above = [sum(compress(powers, row)) for row in leq]
        below = transpose(above, n)
        self._setup(names, above, below, signature, ops)

    @classmethod
    def from_cones(cls, names, above, below, signature, ops, lattice=False):
        """The algebra whose order has above[i] (below[i]) as the mask of
        the elements above (below) element i; below is above transposed.

        lattice=True promises that the order is a lattice and that ops
        holds one well formed flat table per connective (see the module
        docstring): neither is checked, the tables are kept as they are,
        and the meet and join tables are left to be filled on first access.
        """
        alg = cls.__new__(cls)
        alg._setup(names, above, below, signature, ops, lattice)
        return alg

    def _setup(self, names, above, below, signature, ops, lattice=False):
        if callable(names):
            self._names = names
        else:
            self.names = tuple(names)
        self.signature = signature
        self.above = tuple(above)
        self.below = tuple(below)
        self.size = len(self.above)
        if not lattice:  # check the order and fill both tables now: refuse a non-lattice here
            self._check_order()
            self.meet, self.join
        self.top = self._extreme(self.below)
        self.bot = self._extreme(self.above)
        self.tables = ops if lattice else self._check_ops(ops)

    @_lazy
    def names(self):
        """The element names, from the function the algebra was built with."""
        return tuple(self._names())

    @_lazy
    def meet(self):
        """meet[i][j], the index of the meet of elements i and j."""
        return self._build_table(self.below, "meet")

    @_lazy
    def join(self):
        """join[i][j], the index of the join of elements i and j."""
        return self._build_table(self.above, "join")

    @_lazy
    def ops(self):
        """The tables as a read-only view: per connective, a dict from
        argument tuples to values."""
        n, tables = self.size, self.tables
        return MappingProxyType({
            c.name: MappingProxyType(dict(zip(product(range(n), repeat=c.arity), tables[c.name])))
            for c in self.signature.connectives
        })

    @_lazy
    def leq(self):
        """The order as a read-only n x n bool matrix, derived from the cones."""
        n = self.size
        return tuple(tuple(bool(up >> j & 1) for j in range(n)) for up in self.above)

    def _check_order(self):
        """Reflexivity, antisymmetry and transitivity on the cone masks.

        Visits the pairs i <= j in the order of a row-major scan of leq, so
        the first violation found is the one that scan would find.
        """
        above, below = self.above, self.below
        for i in range(self.size):
            up = above[i]
            if not up >> i & 1:
                raise NotALatticeError("leq is not reflexive")
            for j in bits(up):
                if j != i and below[i] >> j & 1:
                    raise NotALatticeError("leq is not antisymmetric")
                if above[j] & ~up:
                    raise NotALatticeError("leq is not transitive")

    def _check_ops(self, ops):
        """One table per connective and none for another name, every argument
        tuple once, all elements: the tables as flat tuples."""
        n = self.size
        extra = set(ops) - {conn.name for conn in self.signature.connectives}
        if extra:
            names = sorted(extra, key=str)
            raise FormatError(f"operation tables with no matching connective: {names}")
        tables = {}
        for conn in self.signature.connectives:
            if conn.name not in ops:
                raise FormatError(f"missing operation table for {conn.name!r}")
            table = dict(ops[conn.name])
            expected = n**conn.arity
            if len(table) != expected:
                raise FormatError(
                    f"operation {conn.name!r}: table has {len(table)} entries, "
                    f"expected {expected}"
                )
            for args, val in table.items():
                if not isinstance(args, tuple) or len(args) != conn.arity or not all(
                    isinstance(x, int) and 0 <= x < n for x in (*args, val)
                ):
                    raise FormatError(f"operation {conn.name!r}: bad entry {args} -> {val}")
            tables[conn.name] = tuple(map(table.__getitem__, product(range(n), repeat=conn.arity)))
        return tables

    def _extreme(self, cone):
        full = (1 << self.size) - 1
        for i in range(self.size):
            if cone[i] == full:
                return i
        raise NotALatticeError("order is not bounded")

    def _build_table(self, cone, what):
        index = {c: k for k, c in enumerate(cone)}
        rows = []
        for i, ci in enumerate(cone):
            # the table is symmetric: entries j < i are column i of earlier rows
            row = [r[i] for r in rows] + [index.get(ci & cj) for cj in cone[i:]]
            if None in row:
                j = row.index(None)
                raise NotALatticeError(
                    f"{what} of {self.names[i]!r} and {self.names[j]!r} does not exist"
                )
            rows.append(row)
        return tuple(map(tuple, rows))

    def to_dict(self):
        names = self.names
        pairs = [[names[i], names[j]] for i in range(self.size) for j in bits(self.above[i])]
        ops = {}
        for conn in self.signature.connectives:
            args = product(names, repeat=conn.arity)
            ops[conn.name] = [[*a, names[v]] for a, v in zip(args, self.tables[conn.name])]
        return {
            "signature": self.signature.to_dict(),
            "elements": list(names),
            "leq": pairs,
            "ops": ops,
        }


def algebra_from_dict(data):
    if not isinstance(data, dict):
        raise FormatError("algebra file must be a JSON object")
    for key in ("signature", "elements", "leq"):
        if key not in data:
            raise FormatError(f"algebra file missing key {key!r}")
    signature = signature_from_dict(data["signature"])
    names = data["elements"]
    idx = name_ids(names, "element")
    n = len(names)
    above = [1 << i for i in range(n)]
    for a, b in index_rows(data["leq"], (idx, idx), "element names in leq"):
        above[a] |= 1 << b
    # reflexive-transitive closure of the given pairs, Warshall on the rows
    for k in range(n):
        bit, up = 1 << k, above[k]
        for i in range(n):
            if above[i] & bit:
                above[i] |= up
    below = transpose(above, n)
    raw_ops = data.get("ops", {})
    if not isinstance(raw_ops, dict):
        raise FormatError("algebra file: 'ops' must be an object")
    ops = dict(raw_ops)  # a table for no connective goes on to be refused by _check_ops
    for conn in signature.connectives:
        rows = raw_ops.get(conn.name)
        if rows is None:
            raise FormatError(f"missing operation table for {conn.name!r}")
        spaces = (idx,) * (conn.arity + 1)
        what = f"element names in operation {conn.name!r}"
        ops[conn.name] = {row[:-1]: row[-1] for row in index_rows(rows, spaces, what)}
    return FiniteAlgebra.from_cones(names, above, below, signature, ops)


def load_algebra(path):
    return algebra_from_dict(read_json(path))


class ComplexAlgebra(FiniteAlgebra):
    """The concept lattice of a frame, each operation its frame's section
    map, so monotone or antitone in each argument by construction.

    A build enumerates the concepts once under cap (CapExceededError past
    it) and builds the operation tables (IncompatibleFrameError when a
    section is no concept), through one extent (intent) index per head
    sort that a connective has; the extent index also serves
    index_of_extent.  pairs keeps the concepts as plain (extent, intent)
    tuples, sorted by extent, so bot is the first and top the last.  The
    cones above and below, the Concepts and the element names wait for a
    reader.  tables is a read-only view: verify_normality and algebra
    validity trust it to hold the frame's section maps.
    """

    def __init__(self, frame, cap=DEFAULT_CONCEPT_CAP):
        self.frame = frame
        self.signature = frame.signature
        self.pairs = pairs = concept_pairs(frame.polarity, cap)
        self.size = n = len(pairs)
        # extent inclusion implies <, and no two extents are equal
        self.bot, self.top = 0, n - 1
        extents, intents = zip(*pairs)
        self._extents, self._intents = extents, intents
        masks = {"W": extents, "U": intents}
        index = {"W": dict(zip(extents, range(n)))}
        tables = {}
        for conn in self.signature.connectives:
            rel = frame.relations[conn.name]
            head, *coords = rel.sorts
            if head not in index:
                index[head] = dict(zip(masks[head], range(n)))
            ids = tuple(map(index[head].get, section_table(rel, [masks[s] for s in coords])))
            if None in ids:
                raise IncompatibleFrameError(
                    f"operation {conn.name!r} leaves the concept lattice; "
                    "the frame is not compatible"
                )
            tables[conn.name] = ids
        self.tables = MappingProxyType(tables)
        self._ext_index = index["W"]

    @_lazy
    def above(self):
        """above[i], the mask of the concepts whose extents hold concept i's."""
        return _cones(self._extents, self.frame.polarity.nw)

    @_lazy
    def below(self):
        """below[i], the mask of the concepts whose intents hold concept i's."""
        return _cones(self._intents, self.frame.polarity.nu)

    @_lazy
    def concepts(self):
        """The concepts as Concepts, in the order of pairs."""
        return as_concepts(self.pairs)

    @_lazy
    def names(self):
        """Each concept shown as its extent and intent, by point names."""
        pol = self.frame.polarity
        return tuple(c.show(pol) for c in self.concepts)

    def index_of_extent(self, extent):
        return self._ext_index[extent]


def _cones(masks, width):
    """For each mask below 2**width, the mask of the positions of the masks
    that hold it: the columns of the masks (the positions whose mask holds
    a point), ANDed over its points."""
    return tuple(meet_each(transpose(masks, width), masks, (1 << len(masks)) - 1))


def build_complex_algebra(frame, cap=DEFAULT_CONCEPT_CAP, check=True):
    """ComplexAlgebra(frame, cap), after the frame's compatibility check unless not check."""
    if check:
        report = check_compatibility(frame)
        if not report.passed:
            raise IncompatibleFrameError(report.message)
    return ComplexAlgebra(frame, cap)


@dataclass
class NormalityReport:
    passed: bool
    connective: str = None
    coordinate: int = None
    law: str = None
    witness: str = None

    @property
    def message(self):
        if self.passed:
            return "PASS: all operations are normal"
        return (
            f"FAIL: {self.connective!r} is not normal at coordinate "
            f"{self.coordinate}: {self.law} fails for {self.witness}"
        )

    def to_dict(self):
        out = {"passed": self.passed}
        if not self.passed:
            out.update(
                connective=self.connective,
                coordinate=self.coordinate,
                law=self.law,
                witness=self.witness,
            )
        return out


def _columns(alg):
    """Every (connective, coordinate, rest) column, in the pair scan's order.

    Yields (conn, i, rest, col, gather, principal).  col[v] is the operation
    with v at coordinate i and rest elsewhere.  For F the column is normal
    exactly when it is residuated: for every b, {v : col[v] <= b}, the OR of
    the preimages of the elements in gather[b] = below[b], is a principal
    down-set (up-set at an antitone coordinate), that is, one of the cones
    in principal.  G is dual: {v : col[v] >= b} from above[b], a principal
    up-set (down-set at an antitone coordinate).  Each set of principal
    cones is built when the first column that compares with it comes.

    A column is a slice of the connective's flat table with the stride of
    coordinate i; a unary column is the whole table.
    """
    n = alg.size
    principals = {}  # the set of the down-cones (True) or up-cones, once a column reads it
    for conn in alg.signature.connectives:
        k = conn.arity
        if not k:  # a constant has no column
            continue
        flat = alg.tables[conn.name]
        gather = alg.below if conn.family == "F" else alg.above
        for i in range(k):
            down = (conn.family == "F") == (conn.order_type[i] == "1")
            if down not in principals:
                principals[down] = set(alg.below if down else alg.above)
            principal = principals[down]
            step = n ** (k - 1 - i)  # of coordinate i in flat
            block = n * step  # of the coordinates before i
            for j, rest in enumerate(product(range(n), repeat=k - 1)):
                start = j // step * block + j % step
                yield conn, i, rest, flat[start : start + block : step], gather, principal


def _residuated(col, gather, principal):
    """True when the OR of the preimages over each gather cone is in principal.

    Only elements in the image of col have a preimage, and the OR over a
    cone depends only on its cut by the image, so there is one OR per
    distinct cut: a handful where the image is small.
    """
    pre = {}  # pre[x]: the mask of the arguments that col sends to x
    for v, x in enumerate(col):
        pre[x] = pre.get(x, 0) | 1 << v
    image = 0
    for x in pre:
        image |= 1 << x
    for cut in {cone & image for cone in gather}:
        got = 0
        for x, args in pre.items():
            if cut >> x & 1:
                got |= args
        if got not in principal:
            return False
    return True


def _column_failure(alg, conn, i, rest, col):
    """The first unit or distribution law the column breaks, or None.

    Checks the unit, then every pair a < b in index order through the meet
    and join tables.
    """
    e = conn.order_type[i]
    if conn.family == "F":
        inner = alg.join if e == "1" else alg.meet
        outer = alg.join
        unit = alg.bot if e == "1" else alg.top
        target = alg.bot
        law = ("join" if e == "1" else "meet") + "-to-join"
    else:
        inner = alg.meet if e == "1" else alg.join
        outer = alg.meet
        unit = alg.top if e == "1" else alg.bot
        target = alg.top
        law = ("meet" if e == "1" else "join") + "-to-meet"
    if col[unit] != target:
        return NormalityReport(
            False, conn.name, i, law + " unit",
            f"rest={tuple(alg.names[r] for r in rest)}",
        )
    for a in range(alg.size):
        inner_a = inner[a]
        outer_a = outer[col[a]]
        for b in range(a + 1, alg.size):
            if col[inner_a[b]] != outer_a[col[b]]:
                return NormalityReport(
                    False, conn.name, i, law,
                    f"a={alg.names[a]!r}, b={alg.names[b]!r}, "
                    f"rest={tuple(alg.names[r] for r in rest)}",
                )
    return None


def verify_normality(alg):
    """Check the distribution and unit laws coordinatewise.

    The complex algebra of a compatible polarity-based frame is a complete
    normal lattice expansion: each section of a compatible relation is a
    complete operator (F) or dual operator (G) on the concept lattice.  So
    a ComplexAlgebra whose frame passes check_compatibility passes at
    once, reading no cone and no meet or join table; its tables are a
    read-only view of the frame's sections.  Every other algebra (given by
    the user, a product, a from_cones copy, or the complex algebra of an
    incompatible frame built without the check) is scanned as follows.

    Family F turns joins into joins at monotone coordinates and meets into
    joins at antitone ones, sending the corresponding unit to bottom.
    Family G is dual.  On a finite lattice an operation obeys these laws
    in a coordinate exactly when it is residuated there (Gehrke and
    Harding, "Bounded lattice expansions", J. Algebra 2001): an F-column
    has an upper adjoint, a G-column a lower one.  Each column is checked
    that way first, from the order cones alone, at one OR of preimages per
    distinct cut of a cone by the column's image; only a column that fails
    is scanned pair by pair through the meet and join tables, for the
    first unit or pair that breaks a law.
    """
    if isinstance(alg, ComplexAlgebra) and check_compatibility(alg.frame).passed:
        return NormalityReport(True)
    for conn, i, rest, col, gather, principal in _columns(alg):
        if not _residuated(col, gather, principal):
            report = _column_failure(alg, conn, i, rest, col)
            if report is not None:
                return report
    return NormalityReport(True)


def find_isomorphism(a, b):
    """A signature-preserving lattice isomorphism a -> b, or None.

    Backtracking over order-compatible assignments, with an explicit stack
    over the elements of a, fewest candidates first, so its depth is not
    bounded by the recursion limit.
    """
    if a.size != b.size or a.signature != b.signature:
        return None

    def invariant(alg, x):
        fixed = tuple(alg.tables[c.name][x] == x for c in alg.signature.connectives if c.arity == 1)
        return (bin(alg.below[x]).count("1"), bin(alg.above[x]).count("1"), fixed)

    inv_a = [invariant(a, x) for x in range(a.size)]
    inv_b = [invariant(b, x) for x in range(b.size)]
    if sorted(inv_a) != sorted(inv_b):
        return None
    groups = {}  # b's elements by invariant, ascending
    for y, inv in enumerate(inv_b):
        groups.setdefault(inv, []).append(y)
    candidates = [groups[inv] for inv in inv_a]
    order = sorted(range(a.size), key=lambda x: len(candidates[x]))
    mapping = [None] * a.size
    used = [False] * b.size

    def ops_ok(m):
        for conn in a.signature.connectives:
            at = positions(m, conn.arity, b.size)  # of a's argument tuples, mapped, in b
            tb = b.tables[conn.name]
            if [m[v] for v in a.tables[conn.name]] != [tb[p] for p in at]:
                return False
        return True

    trials = [iter(candidates[order[0]])]  # trials[k]: order[k]'s untried candidates
    while trials:
        k = len(trials) - 1
        x = order[k]
        if mapping[x] is not None:  # back at this level: undo its assignment
            used[mapping[x]] = False
            mapping[x] = None
        up_x, down_x = a.above[x], a.below[x]
        for y in trials[k]:
            if used[y]:
                continue
            up_y, down_y = b.above[y], b.below[y]
            for x2 in order[:k]:  # y must agree with the earlier assignments on the order
                y2 = mapping[x2]
                if (up_x >> x2 & 1) != (up_y >> y2 & 1) or (down_x >> x2 & 1) != (down_y >> y2 & 1):
                    break
            else:
                mapping[x] = y
                used[y] = True
                break
        else:
            trials.pop()
            continue
        if k + 1 < len(order):
            trials.append(iter(candidates[order[k + 1]]))
        elif ops_ok(mapping):
            return mapping
    return None


def positions(m, arity, n):
    """For each argument tuple in product order, its position in a flat
    table over n elements once m sends each of its coordinates: the Horner
    sum (m[x_0] * n + m[x_1]) * n + ..., the last coordinate fastest."""
    at = [0]
    for _ in range(arity):
        at = [p * n + y for p in at for y in m]
    return at
