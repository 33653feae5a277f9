"""The one reader of outside input: files, name lists and named rows."""

import re

import pytest

from lekit import FormatError, Polarity
from lekit.reading import index_rows, name_ids, read_json

IDS = {"a": 0, "b": 1}


def test_read_json_reads_utf8(tmp_path):
    path = tmp_path / "in.json"
    path.write_bytes('{"W": ["ä"]}'.encode())
    assert read_json(path) == {"W": ["ä"]}


@pytest.mark.parametrize(
    "contents, message",
    [
        (b'{"W": [}', r": invalid JSON: Expecting value \(line 1\)$"),
        (b"\n\n[1,,", r": invalid JSON: Expecting value \(line 3\)$"),
        (b"\xff\xfe\x00{", r": not UTF-8 text: invalid start byte at byte 0$"),
        (b"[" * 100_000 + b"]" * 100_000, r": JSON nested too deeply$"),
    ],
    ids=["invalid", "invalid-line-3", "not-utf-8", "too-deep"],
)
def test_read_json_names_the_path_of_a_file_it_cannot_decode(tmp_path, contents, message):
    path = tmp_path / "in.json"
    path.write_bytes(contents)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}{message}"):
        read_json(path)


def test_name_ids():
    assert name_ids(["a", "b"], "W point") == IDS
    assert name_ids((), "element") == {}


@pytest.mark.parametrize(
    "names, message",
    [
        ("ab", "W point names must be a list of strings"),
        ({"a": 0}, "W point names must be a list of strings"),
        (["a", 5], "W point names must be a list of strings"),
        (["a", "b", "a"], "duplicate W point names"),
    ],
)
def test_name_ids_refuses(names, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        name_ids(names, "W point")


def test_index_rows_maps_each_position_through_its_dict():
    rows = [["a", "x"], ("b", "y"), ["a", "y"]]
    assert index_rows(rows, (IDS, {"x": 0, "y": 1}), "names") == [(0, 0), (1, 1), (0, 1)]
    assert index_rows([["b"]], (IDS,), "names") == [(1,)]
    assert index_rows([], (IDS, IDS, IDS), "names") == []


@pytest.mark.parametrize(
    "rows, message",
    [
        (5, "expected a list of pairs of names in N, got int"),
        ({"a": "b"}, "expected a list of pairs of names in N, got dict"),
        (["ab"], "'ab' is not a pair of names in N"),
        ([["a"]], r"\['a'\] is not a pair of names in N"),
        ([["a", "b", "a"]], r"\['a', 'b', 'a'\] is not a pair of names in N"),
        ([["a", "z"]], r"\['a', 'z'\] is not a pair of names in N: unknown name 'z'"),
        ([["a", 1]], r"\['a', 1\] is not a pair of names in N: unknown name 1"),
        ([["a", ["b"]]], r"\['a', \['b'\]\] is not a pair of names in N"),
    ],
    ids=["int", "dict", "string", "short", "long", "unknown", "not-a-string", "unhashable"],
)
def test_index_rows_refuses(rows, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        index_rows(rows, (IDS, IDS), "names in N")


def test_polarity_indexes_names_by_dict():
    pol = Polarity.from_names(["a", "b"], ["x"], [["b", "x"]])
    assert pol.w_ids == IDS and pol.u_ids == {"x": 0}
    assert pol.pairs == {(1, 0)}
    assert (pol.w_index("b"), pol.u_index("x")) == (1, 0)
    for lookup in (pol.w_index, pol.u_index):
        for name in ("z", ["a"]):
            with pytest.raises(FormatError, match="^unknown [WU] point"):
                lookup(name)
