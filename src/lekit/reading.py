"""Outside input: JSON files, lists of names, and rows of names.

Every file lekit reads goes through read_json, every list of point or
element names through name_ids, and every list of named rows (N pairs,
relation tuples, p-morphism pairs, algebra order pairs and operation
rows) through index_rows, so each kind of malformed input ends in a
FormatError in one place.
"""

from __future__ import annotations

import json
from itertools import repeat

from .errors import FormatError


def read_json(path):
    """The JSON value in the UTF-8 file at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno})") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None


def name_ids(names, what):
    """The index of each name in names, a list or tuple of distinct strings."""
    if not isinstance(names, (list, tuple)) or not all(map(isinstance, names, repeat(str))):
        raise FormatError(f"{what} names must be a list of strings")
    ids = {name: i for i, name in enumerate(names)}
    if len(ids) != len(names):
        raise FormatError(f"duplicate {what} names")
    return ids


def index_rows(rows, spaces, what):
    """The rows of names as tuples of indices.

    rows must be a list or tuple of rows, each a list or tuple of
    len(spaces) names; the name at position k is looked up in the dict
    spaces[k].  what says which names the rows hold, for the messages:
    "point names in N" gives "['a'] is not a pair of point names in N".
    """
    width = len(spaces)
    shape = "pair" if width == 2 else f"{width}-tuple"
    if not isinstance(rows, (list, tuple)):
        raise FormatError(f"expected a list of {shape}s of {what}, got {type(rows).__name__}")
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise FormatError(f"{row!r} is not a {shape} of {what}")
        try:
            out.append(tuple(map(dict.__getitem__, spaces, row)))
        except KeyError as exc:
            raise FormatError(
                f"{row!r} is not a {shape} of {what}: unknown name {exc.args[0]!r}"
            ) from None
        except TypeError:  # an unhashable name
            raise FormatError(f"{row!r} is not a {shape} of {what}") from None
    return out
