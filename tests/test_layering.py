"""Module layering: top-level imports only, in one fixed module order."""

import ast
import inspect
import random
from itertools import product
from pathlib import Path

import pytest

from lekit import frame
from lekit.bitset import meet_each
from lekit.definability import search_falsification

SRC = Path(__file__).resolve().parent.parent / "src" / "lekit"

# Each module may import only modules of a lower rank.
RANK = {
    "errors": 0,
    "bitset": 0,
    "emit": 1,
    "syntax": 1,
    "reading": 1,
    "polarity": 2,
    "frame": 3,
    "fol": 4,
    "algebra": 4,
    "semantics": 5,
    "constructions": 5,
    "morphism": 6,
    "sampling": 7,
    "definability": 8,
    "cli": 9,
    "__main__": 10,
}

MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
CODE_BUILTINS = {"exec", "eval", "compile"}


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def test_every_module_has_a_rank():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_at_module_level(name):
    tree = _tree(name)
    top = {id(node) for node in tree.body}
    nested = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not nested, f"{name}.py has function-local imports: {nested}"


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_earlier_modules(name):
    later = [
        node.module
        for node in _tree(name).body
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and node.module is not None  # `from . import __version__`
        and RANK[node.module] >= RANK[name]
    ]
    assert not later, f"{name}.py imports modules at or above its rank: {later}"


def _users(tree, module, hit):
    """(module, innermost enclosing function) of each node where hit(node)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if hit(node):
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def _all_users(hit):
    users = set()
    for path in SRC.glob("*.py"):
        users |= _users(_tree(path.stem), path.stem, hit)
    return users


def test_only_the_emitter_compiles_code():
    users = _all_users(lambda node: isinstance(node, ast.Name) and node.id in CODE_BUILTINS)
    assert users == {("emit", "compiled")}, users


# Where a connective's family and order type may be read.  connective_sorts
# turns them into the sorts of the relation's coordinates, and the rest of
# the code goes by those sorts; the others are the oracles and the algebraic
# laws, stated by family.
SORT_RULE_READERS = {
    ("frame", "connective_sorts"),
    ("semantics", "eval_formula"),
    ("semantics", "_sat"),
    ("semantics", "_cosat"),
    ("algebra", "_columns"),
    ("algebra", "_column_failure"),
}


def test_family_and_order_type_are_read_by_the_sort_rule_only():
    users = _all_users(
        lambda node: isinstance(node, ast.Attribute) and node.attr in ("family", "order_type")
    )
    stray = {(m, f) for m, f in users if m != "syntax"} - SORT_RULE_READERS
    assert not stray, stray


# Outside input is read in one module: reading.read_json opens and decodes
# every file lekit reads, and parse_signature decodes signature text.
# Writing files (save_frame) is not reading.
JSON_DECODERS = {("reading", "read_json"), ("syntax", "parse_signature")}


def _decodes_json(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("load", "loads")
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
    )


def _opens_for_reading(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    return not any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax") for m in modes)


def test_only_the_reader_decodes_json():
    users = _all_users(_decodes_json)
    assert users == JSON_DECODERS, users


def test_only_the_reader_opens_files_for_reading():
    users = _all_users(_opens_for_reading)
    assert users == {("reading", "read_json")}, users


def test_sampling_reads_the_coproduct_morphisms_off_n():
    # diagonal_surjection and component_embedding write S and T down from
    # the incidence; dualizing an algebra map is the tests' oracle for them
    imported = set()
    for node in _tree("sampling").body:
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {alias.name for alias in node.names}
    assert not imported & {"algebra", "DualHom", "dual_hom", "dual_pmorphism"}, imported


def test_the_search_draws_nothing():
    # search_falsification walks box_frames under every construction; the
    # random frame drawers are test helpers (tests/conftest.py)
    for name in ("definability", "cli"):
        modules = {
            alias.name if isinstance(node, ast.Import) else node.module
            for node in ast.walk(_tree(name))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert "random" not in modules, name
    defined = {node.name for node in _tree("sampling").body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"draw_box_key", "random_box_frame"}, defined
    assert "rng" not in inspect.signature(search_falsification).parameters


# A section at one point is a read: row w of N is up of {w}, column u is
# down of {u}, and likewise for the relations S and T of a p-morphism.
GALOIS_MAPS = {"up", "down", "closure_w", "closure_u", "stable_w", "stable_u"}


def _one_point_argument(node):
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.LShift)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 1
    )


def test_point_sections_are_reads():
    users = _all_users(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in GALOIS_MAPS
        and any(map(_one_point_argument, node.args))
    )
    assert not users, users


def test_relation_conditions_fold_through_section_table():
    imported = {
        alias.name
        for node in _tree("morphism").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "section_zero" not in imported, imported


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_section_table_folds_each_coordinate_in_one_call(arity, monkeypatch):
    # the sections of all prefixes ride in one meet_each per coordinate,
    # not one per prefix or per column
    rng = random.Random(arity)
    sizes = (5,) + (4,) * arity
    tuples = [t for t in product(*map(range, sizes)) if rng.random() < 0.5]
    rel = frame.Relation(("W",) + ("U",) * arity, sizes, tuples)
    reads = [[rng.randrange(16) for _ in range(count)] for count in (3, 40, 5)[:arity]]
    calls = []

    def spy(rows, masks, full):
        calls.append(len(masks))
        return meet_each(rows, masks, full)

    monkeypatch.setattr(frame, "meet_each", spy)
    frame.section_table(rel, reads)
    assert calls == [len(masks) for masks in reversed(reads)]


def test_connective_memos_hold_bare_sections():
    # the validity program derives a connective's other mask where it reads it,
    # computes a section itself at a miss (meet_rows on a unary relation's one
    # row, else section_zero), and fills a memo by one rule in the emitter
    defined = {node.name for node in _tree("semantics").body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_section_pair", "_section", "_fills"}, defined


def test_validity_memos_are_exact_dicts():
    # CPython specializes subscripts on an exact dict only: the validity
    # program derives a missing entry in its own except clause
    tree = _tree("semantics")
    subclasses = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "dict" for base in node.bases)
    ]
    assert not subclasses, subclasses
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_Closed", "_closed"}


def test_validity_checks_no_frame_for_compatibility():
    # validity decides frames loaded without the check, and its reduced
    # scans need only the monotone raw sections: the load is the one check
    users = _users(
        _tree("semantics"),
        "semantics",
        lambda node: isinstance(node, ast.Name) and node.id == "check_compatibility",
    )
    assert not users, users


def test_only_the_ops_view_reads_ops():
    # an operation table is one flat tuple in product order, tables[name];
    # ops, the same tables keyed by argument tuples, is a view for readers
    # outside lekit, so the table format is known in algebra alone
    users = _all_users(lambda node: isinstance(node, ast.Attribute) and node.attr == "ops")
    assert users <= {("algebra", "ops")}, users
