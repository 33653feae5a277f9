"""Small helpers for sets of indices packed into Python ints.

meet_rows is the one section kernel: the Galois maps, p-morphism sections
and relation sections all AND the rows a mask picks.  meet_table is the
same map for a loop that calls it many times on one set of rows: it reads
one table of partial ANDs per byte of the mask instead of one row per bit.
meet_each is the map over a list of masks: meet_rows for a few masks, else
the byte tables, read in one comprehension for up to 24 rows and through
meet_table beyond.  The partners of the concepts an enumeration found, the
cones of a complex algebra and the folds of its operation tables
(frame.section_table) go through it, one call per folded coordinate.
transpose turns masks over points into masks over the masks' positions.
pack_columns and split carry many masks in one int, each in a lane of
whole bytes at least as wide as the masks, so that one AND (and one
meet_each) acts on all of them: a fold packs the sections of every
argument tuple it has not yet folded side by side.
"""

from array import array


def bits(mask):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def meet_rows(rows, mask, acc):
    """acc ANDed with rows[i] for every set bit i of mask.

    Stops as soon as acc is empty.
    """
    while mask and acc:
        low = mask & -mask
        acc &= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def meet_table(rows, full):
    """The function m -> meet_rows(rows, m, full), for masks m over range(len(rows)).

    Builds, for each byte of the mask, the table of the ANDs of the rows
    that byte picks: 2**k entries for a byte of k bits, so len(rows) / 8
    tables of at most 256 entries each.  A call then does one lookup and
    one AND per byte.
    """
    if len(rows) <= 8:
        return _byte_table(rows, full).__getitem__
    tables = [_byte_table(rows[s : s + 8], full) for s in range(0, len(rows), 8)]

    def meet(m):
        acc = full
        for table in tables:
            acc &= table[m & 255]
            m >>= 8
        return acc

    return meet


def _byte_table(rows, full):
    """table[m] = meet_rows(rows, m, full) for every mask m over range(len(rows))."""
    table = [full]
    for row in rows:
        table += [acc & row for acc in table]
    return table


# _DIGITS[j] maps a byte to the ASCII digit of its bit j
_DIGITS = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]


def transpose(masks, width):
    """The columns of masks below 2**width as a bit matrix: bit k of column j
    is bit j of masks[k].

    Writes the masks as bytes, the last mask first, so column j is every
    byte j // 8 of a mask, read as binary digits by its bit j % 8.
    """
    size = (width + 7) // 8
    raw = b"".join([m.to_bytes(size, "little") for m in reversed(masks)])
    return [int(raw[j >> 3 :: size].translate(_DIGITS[j & 7]) or b"0", 2) for j in range(width)]


def meet_each(rows, masks, full):
    """[meet_rows(rows, m, full) for m in masks].

    More than 32 masks read meet_table's byte tables: below that, building
    the tables costs more than it saves, even for few rows.  Up to 24 rows,
    one to three tables, the reads are written out in one comprehension,
    with no call per mask; more rows call meet_table's function.
    """
    if len(masks) <= 32:
        return [meet_rows(rows, m, full) for m in masks]
    if len(rows) > 24:
        return list(map(meet_table(rows, full), masks))
    t0 = _byte_table(rows[:8], full)
    if len(rows) <= 8:
        return [t0[m] for m in masks]
    t1 = _byte_table(rows[8:16], full)
    if len(rows) <= 16:
        return [t0[m & 255] & t1[m >> 8] for m in masks]
    t2 = _byte_table(rows[16:], full)
    return [t0[m & 255] & t1[m >> 8 & 255] & t2[m >> 16] for m in masks]


# the array typecodes of the machine lanes, by bytes a lane, ascending
_LANE_CODES = {array(code).itemsize: code for code in "BHIQ"}


def lane_bytes(width):
    """Bytes a lane needs to hold masks below 2**width: 1, 2, 4 or 8 (one
    machine lane, which array and memoryview read in C), beyond 64 bits
    the fewest that hold them."""
    size = (width + 7) // 8 or 1
    return next((b for b in _LANE_CODES if b >= size), size)


def pack_columns(table, width, lane):
    """The columns of table, read as rows of width entries, one int each:
    the int of column v holds table[v + k * width] in its k-th lane of lane
    bytes.

    An AND of two such ints is the lane-wise AND: nothing carries between
    lanes.
    """
    code = _LANE_CODES.get(lane)
    if code:
        cells = array(code, table)
        return [int.from_bytes(cells[v::width].tobytes(), "little") for v in range(width)]
    cells = [m.to_bytes(lane, "little") for m in table]
    return [int.from_bytes(b"".join(cells[v::width]), "little") for v in range(width)]


def split(packed, count, lane):
    """The lanes of the ints in packed, count lanes of lane bytes each, in
    one list: the lanes of packed[0] first."""
    raw = b"".join([p.to_bytes(count * lane, "little") for p in packed])
    code = _LANE_CODES.get(lane)
    if code:
        return memoryview(raw).cast(code).tolist()
    return [int.from_bytes(raw[k : k + lane], "little") for k in range(0, len(raw), lane)]


def names_of(mask, names):
    return tuple(names[i] for i in bits(mask))
