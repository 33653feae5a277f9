"""Independent checks of op verdicts, run outside the timed region.

The concept oracle and the isomorphism check work from the raw input data
and the algebras' tables with their own code.  The remaining checks use the
lekit results the theory says must agree with an op: the bridge between
frame and algebra validity, the recursive satisfaction clauses, model
validity for the first order translation, and the compatibility checker
for constructed frames.
"""

from __future__ import annotations


def masks(data):
    """Row masks (over U) and column masks (over W) of a polarity dict."""
    widx = {n: i for i, n in enumerate(data["W"])}
    uidx = {n: i for i, n in enumerate(data["U"])}
    rows = [0] * len(widx)
    cols = [0] * len(uidx)
    for w, u in data["N"]:
        rows[widx[w]] |= 1 << uidx[u]
        cols[uidx[u]] |= 1 << widx[w]
    return rows, cols


def _meet_table(sets, full):
    """meet[x] = AND of sets[i] over the bits i of x, for every x."""
    table = [full]
    for s in sets:
        table += [t & s for t in table]
    return table


class _Galois:
    """up/down by lookups in tables over the low and high halves of a mask."""

    def __init__(self, sets, full):
        self.half = len(sets) // 2
        self.low = _meet_table(sets[: self.half], full)
        self.high = _meet_table(sets[self.half :], full)
        self.low_mask = (1 << self.half) - 1

    def __call__(self, x):
        return self.low[x & self.low_mask] & self.high[x >> self.half]


def scan_concepts(data):
    """Every (extent, intent) pair, by testing each subset of the smaller sort."""
    rows, cols = masks(data)
    nw, nu = len(rows), len(cols)
    up = _Galois(rows, (1 << nu) - 1)
    down = _Galois(cols, (1 << nw) - 1)
    found = set()
    if nw <= nu:
        for x in range(1 << nw):
            y = up(x)
            if down(y) == x:
                found.add((x, y))
    else:
        for y in range(1 << nu):
            x = down(y)
            if up(x) == y:
                found.add((x, y))
    return found


def concepts_problem(concepts, expected):
    got = [(c.extent, c.intent) for c in concepts]
    if len(got) != len(set(got)) or set(got) != expected:
        return f"{len(got)} concepts, subset scan finds {len(expected)}"
    return None


def isomorphism_problem(mapping, a, b):
    """None when mapping is a bijective order and operation isomorphism a -> b.

    A bijection that preserves and reflects the order preserves all meets
    and joins, so it is a complete homomorphism.
    """
    if mapping is None:
        return "no map returned"
    m = list(mapping)
    if len(m) != a.size or sorted(m) != list(range(b.size)):
        return "map is not a bijection"
    for x in range(a.size):
        for y in range(a.size):
            if a.leq[x][y] != b.leq[m[x]][m[y]]:
                return f"order not preserved at ({x}, {y})"
    for conn in a.signature.connectives:
        table = b.ops[conn.name]
        for args, val in a.ops[conn.name].items():
            if m[val] != table[tuple(m[i] for i in args)]:
                return f"{conn.name} not preserved at {args}"
    return None


def counter_problem(lk, frame, sequent, verdict):
    """None when the reported counter-valuation falsifies the sequent pointwise."""
    model = lk.Model(frame, verdict.counter_valuation)
    for w in range(frame.polarity.nw):
        if lk.satisfies_recursive(model, w, sequent.lhs) and not lk.satisfies_recursive(
            model, w, sequent.rhs
        ):
            return None
    return "counter-valuation satisfies the sequent under the recursive clauses"


def tree_of(phi):
    """A parsed lekit formula as the generator's tuple tree."""
    kind = type(phi).__name__
    if kind == "Prop":
        return ("prop", phi.name)
    if kind in ("Top", "Bot"):
        return (kind.lower(),)
    if kind in ("And", "Or"):
        return (kind.lower(), tree_of(phi.left), tree_of(phi.right))
    return ("conn", phi.name, tuple(tree_of(a) for a in phi.args))


def r_is_n_complement(data):
    """The frame condition R = (W x U) minus N, on a box frame dict."""
    n = {tuple(p) for p in data["N"]}
    r = {tuple(p) for p in data["relations"]["box"]}
    return all(((w, u) in r) != ((w, u) in n) for w in data["W"] for u in data["U"])
