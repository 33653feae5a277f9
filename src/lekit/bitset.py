"""Small helpers for sets of indices packed into Python ints."""


def bits(mask):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def meet_rows(rows, mask, acc):
    """acc ANDed with rows[i] for every set bit i of mask.

    The one section kernel: Galois maps, p-morphism sections and relation
    sections all reduce to it.  Stops as soon as acc is empty.
    """
    while mask and acc:
        low = mask & -mask
        acc &= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def subsets(n):
    """All subsets of range(n) as masks, in increasing mask order."""
    return range(1 << n)


def names_of(mask, names):
    return tuple(names[i] for i in bits(mask))
