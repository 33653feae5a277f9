"""Command line interface: exit codes, output shapes, caps."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from lekit import build_complex_algebra, load_frame
from lekit.cli import main

from conftest import golden_path

F1 = str(golden_path("coproduct_F1.json"))
F2 = str(golden_path("coproduct_F2.json"))
M1_SRC = str(golden_path("morphism1_F2.json"))
M1_TGT = str(golden_path("morphism1_F1.json"))
M1_ST = str(golden_path("morphism1_ST.json"))
BAD_ST = str(golden_path("nonmorphism_ST.json"))
SIG = str(golden_path("sig_box.json"))
EMPTY = str(golden_path("empty.json"))


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pass(capsys):
    code, out, _ = run_cli(["check", F1], capsys)
    assert code == 0
    assert "PASS" in out


def test_check_alt(capsys):
    code, out, _ = run_cli(["check", "--alt", F1], capsys)
    assert code == 0
    assert "PASS" in out


def test_check_json(capsys):
    code, out, _ = run_cli(["--json", "check", F1], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_missing_file(capsys):
    code, _, err = run_cli(["check", "/nonexistent/frame.json"], capsys)
    assert code == 2
    assert err


def test_concepts(capsys):
    code, out, _ = run_cli(["concepts", F1], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # four concepts plus a count line
    assert lines[-1] == "4 concepts"


def test_concepts_empty_frame(capsys):
    code, out, _ = run_cli(["concepts", EMPTY], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "1 concept"


def test_valid_sequent(capsys):
    code, out, _ = run_cli(["valid", F1, "box box p |- p"], capsys)
    assert code == 0
    assert "valid" in out


def test_invalid_sequent_reports_countervaluation(capsys):
    code, out, _ = run_cli(["valid", F1, "box p |- p"], capsys)
    assert code == 1
    assert "counter-valuation" in out
    assert "p =" in out


def test_valid_json(capsys):
    code, out, _ = run_cli(["--json", "valid", F1, "box p |- p"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False
    assert data["counter_valuation"]


def test_valid_parse_error(capsys):
    code, _, err = run_cli(["valid", F1, "box p |-"], capsys)
    assert code == 2


def test_coproduct_to_file(tmp_path, capsys):
    out_path = tmp_path / "cop.json"
    code, out, _ = run_cli(["coproduct", F1, F2, "-o", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["W"]) == 4


def test_pmorphism_pass(capsys):
    code, out, _ = run_cli(["pmorphism", M1_SRC, M1_TGT, M1_ST], capsys)
    assert code == 0
    assert "PASS" in out
    assert "injective: True" in out or "injective" in out


def test_pmorphism_fail(capsys):
    code, out, _ = run_cli(["pmorphism", F1, M1_SRC, BAD_ST], capsys)
    assert code == 1
    assert "FAIL" in out


def test_filter_ideal_from_frame(tmp_path, capsys):
    out_path = tmp_path / "fif.json"
    code, _, _ = run_cli(["filter-ideal", F1, "-o", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["W"]) == 4  # one filter per concept


def test_translate_formula(capsys):
    code, out, _ = run_cli(["translate", SIG, "box p"], capsys)
    assert code == 0
    assert out.strip() == "(forall_u y1 (-> (P_int_p y1) (R_box x y1)))"


def test_translate_formula_u_sort(capsys):
    code, out, _ = run_cli(["translate", SIG, "p", "--sort", "u"], capsys)
    assert code == 0
    assert out.strip() == "(P_int_p y)"


def test_translate_sequent_forms(capsys):
    outs = set()
    for form in ("impl-x", "impl-y", "pairing"):
        code, out, _ = run_cli(
            ["translate", SIG, "box p |- p", "--form", form], capsys
        )
        assert code == 0
        outs.add(out.strip())
    assert len(outs) == 3


def test_falsify_coproduct(capsys):
    code, out, _ = run_cli(
        [
            "falsify",
            F1,
            F2,
            "--condition",
            "R-equals-N-complement",
            "--construction",
            "coproduct",
        ],
        capsys,
    )
    assert code == 0
    assert "FALSIFIED" in out


def test_falsify_search(capsys):
    code, out, _ = run_cli(
        [
            "--seed",
            "3",
            "falsify",
            "--search",
            "--max-size",
            "2",
            "--condition",
            "R-equals-N-complement",
            "--construction",
            "coproduct",
        ],
        capsys,
    )
    assert code in (0, 1)
    if code == 0:
        assert "FALSIFIED" in out


def test_cap_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LEKIT_CAP", "1")
    code, _, err = run_cli(["concepts", F1], capsys)
    assert code == 2
    assert "cap" in err.lower()


def test_cap_env_var_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("LEKIT_CAP", "abc")
    code, _, err = run_cli(["concepts", F1], capsys)
    assert code == 2
    assert "LEKIT_CAP" in err


@pytest.mark.parametrize("argv", [["concepts", F1], ["valid", F1, "box box p |- p"]])
def test_negative_cap_flag_is_refused(argv, capsys):
    code, _, err = run_cli(["--cap", "-1"] + argv, capsys)
    assert code == 2
    assert err == "error: --cap must be at least 0, got -1\n"


def test_negative_cap_env_var_is_refused(capsys, monkeypatch):
    monkeypatch.setenv("LEKIT_CAP", "-3")
    code, _, err = run_cli(["valid", F1, "box box p |- p"], capsys)
    assert code == 2
    assert err == "error: LEKIT_CAP must be at least 0, got -3\n"


def test_cap_flag_overrides(capsys, monkeypatch):
    monkeypatch.setenv("LEKIT_CAP", "1")
    code, _, _ = run_cli(["--cap", "1000", "concepts", F1], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["concepts", M1_TGT],
        ["pmorphism", M1_SRC, M1_TGT, M1_ST],
        ["pmorphism", F1, M1_SRC, BAD_ST],
        ["filter-ideal", F1],
        ["valid", F1, "box box p |- p"],
    ],
    ids=["concepts", "pmorphism", "pmorphism-fail", "filter-ideal", "valid"],
)
def test_cap_zero_is_enforced(argv, capsys):
    # --cap 0 is a cap of zero concepts everywhere, never "use the default"
    code, _, err = run_cli(["--cap", "0"] + argv, capsys)
    assert code == 2
    assert "cap" in err.lower()


@pytest.mark.parametrize("frames", [[F1, F2], []], ids=["two-frames", "no-frame"])
def test_falsify_filter_ideal_needs_one_frame(frames, capsys):
    code, _, err = run_cli(
        ["falsify", *frames, "--condition", "R-equals-N-complement",
         "--construction", "filter-ideal"],
        capsys,
    )
    assert code == 2
    assert err == f"error: filter-ideal needs exactly one frame, got {len(frames)}\n"


@pytest.mark.parametrize("size", ["0", "-1"])
def test_falsify_search_max_size_below_one(size, capsys):
    code, _, err = run_cli(
        [
            "falsify",
            "--search",
            "--max-size",
            size,
            "--condition",
            "R-equals-N-complement",
            "--construction",
            "coproduct",
        ],
        capsys,
    )
    assert code == 2
    assert "--max-size" in err


def run_module(argv):
    """Run python -m lekit in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lekit"] + argv,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_python_dash_m_lekit():
    proc = run_module(["--version"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("lekit ")


@pytest.mark.parametrize(
    "change",
    [
        {"W": 5},
        {"N": [["a1"]]},
        {"W": ["a"], "U": ["x"], "N": ["ax"], "relations": {}},
        {"relations": {"box": 5}},
        {"relations": {"box": [5]}},
        {"signature": {"connectives": 5}},
        {
            "signature": {
                "connectives": [
                    {"name": "box", "family": "G", "arity": "1", "order_type": ["1"]}
                ]
            }
        },
    ],
    ids=[
        "W-not-a-list",
        "N-pair-of-length-1",
        "N-pair-as-a-string",
        "relation-not-a-list",
        "tuple-not-a-list",
        "connectives-not-a-list",
        "arity-not-an-integer",
    ],
)
def test_malformed_frame_file_exits_2(change, tmp_path):
    with open(F1) as fh:
        data = json.load(fh)
    data.update(change)
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(data))
    proc = run_module(["check", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_main_repeated_in_one_process_matches_separate_calls(capsys):
    # the parser is built once per process; reusing it must not leak state
    sequence = [
        ["--json", "check", F1],
        ["check", F1],
        ["--json", "valid", F1, "box p |- p"],
        ["valid", F1, "box p |- p"],
        ["--cap", "0", "concepts", F1],
        ["concepts", F1],
        ["check"],
        ["pmorphism", M1_SRC, M1_TGT, M1_ST],
        ["--json", "pmorphism", F1, M1_SRC, BAD_ST],
        ["concepts", EMPTY],
    ]
    in_process = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    separate = [(proc.returncode, proc.stdout) for proc in map(run_module, sequence)]
    assert in_process == separate
    assert [code for code, _ in in_process] == [0, 0, 1, 1, 2, 0, 2, 0, 1, 0]


def _complex_algebra_data():
    return build_complex_algebra(load_frame(F1)).to_dict()


def _write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "change",
    [
        {"leq": [["({a1}, {x1})"]]},
        {"elements": 5},
        {"leq": 5},
        {"ops": 5},
        {"ops": {"box": [5]}},
    ],
    ids=[
        "leq-pair-of-length-1",
        "elements-not-a-list",
        "leq-not-a-list",
        "ops-not-an-object",
        "op-row-not-a-list",
    ],
)
def test_malformed_algebra_file_exits_2(change, tmp_path):
    data = _complex_algebra_data()
    data.update(change)
    proc = run_module(["filter-ideal", "--algebra", _write_json(tmp_path, "alg.json", data)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "change",
    [{"S": [["a"]]}, {"S": 5}, {"T": [5]}],
    ids=["S-pair-of-length-1", "S-not-a-list", "T-pair-not-a-list"],
)
def test_malformed_morphism_file_exits_2(change, tmp_path):
    with open(M1_ST) as fh:
        data = json.load(fh)
    data.update(change)
    proc = run_module(["pmorphism", M1_SRC, M1_TGT, _write_json(tmp_path, "st.json", data)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def _paths(value, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {k: _replaced(v, rest, new) if k == head else v for k, v in value.items()}
    return [_replaced(v, rest, new) if k == head else v for k, v in enumerate(value)]


def _golden(name):
    with open(golden_path(name)) as fh:
        return json.load(fh)


FRAME_COMMANDS = (
    ["check", "{}"],
    ["concepts", "{}"],
    ["valid", "{}", "box p |- p"],
    ["filter-ideal", "{}"],
    ["coproduct", "{}", F1],
)
# (file contents, the commands that read it; {} is the mutated file)
FUZZ_FILES = [
    (_golden(name), FRAME_COMMANDS)
    for name in (
        "coproduct_F1.json",
        "coproduct_F2.json",
        "empty.json",
        "morphism1_F1.json",
        "morphism1_F2.json",
        "morphism2_F2.json",
    )
] + [
    (_golden("morphism1_ST.json"), (["pmorphism", M1_SRC, M1_TGT, "{}"],)),
    (_golden("morphism2_ST.json"), (["pmorphism", F1, str(golden_path("morphism2_F2.json")), "{}"],)),
    (_golden("nonmorphism_ST.json"), (["pmorphism", F1, M1_SRC, "{}"],)),
    (_complex_algebra_data(), (["filter-ideal", "--algebra", "{}"],)),
    (_golden("sig_box.json"), (["translate", "{}", "box p |- p"],)),
]
MUTANTS = (5, "x", [], {}, None, [["a"]])
NEW_KEYS = ("x", "relations", "ops", "box", "name", "arity", "S")
# every command that reads a file, with {} for the file
FILE_COMMANDS = FRAME_COMMANDS + (
    ["pmorphism", M1_SRC, M1_TGT, "{}"],
    ["filter-ideal", "--algebra", "{}"],
    ["translate", "{}", "box p |- p"],
)
# files that are not JSON text: not UTF-8, and nested past the recursion limit
RAW_FILES = (b"\xff\xfe\x00{", b"[" * 100_000 + b"]" * 100_000)


@st.composite
def _mutation(draw, data):
    """data with the value at one path replaced, or a key added to or
    deleted from the object there."""
    path = draw(st.sampled_from(list(_paths(data))))
    target = _at(data, path)
    kind = draw(st.sampled_from(("replace", "add", "delete")))
    if kind == "add" and isinstance(target, dict):
        new = {**target, draw(st.sampled_from(NEW_KEYS)): draw(st.sampled_from(MUTANTS))}
    elif kind == "delete" and isinstance(target, dict) and target:
        key = draw(st.sampled_from(sorted(target)))
        new = {k: v for k, v in target.items() if k != key}
    else:
        new = draw(st.sampled_from(MUTANTS))
    return _replaced(data, path, new)


@st.composite
def mutated_inputs(draw):
    """The bytes of a golden file after one or two mutations, or of a raw
    file, and a command that reads it."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(RAW_FILES)), draw(st.sampled_from(FILE_COMMANDS))
    data, commands = draw(st.sampled_from(FUZZ_FILES))
    for _ in range(draw(st.integers(1, 2))):
        data = draw(_mutation(data))
    return json.dumps(data).encode(), draw(st.sampled_from(commands))


def _exit_code(argv):
    """main's exit code on argv, after checking the exit-code contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors only
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: "))
    return code


def _exit_code_on_file(path, contents, command):
    """_exit_code on command, with {} standing for a file holding contents."""
    path.write_bytes(contents)
    return _exit_code([str(path) if arg == "{}" else arg for arg in command])


@seed(20181)
@settings(max_examples=400, deadline=None, database=None)
@given(mutated_inputs())
def test_mutated_input_files_keep_the_exit_code_contract(tmp_path_factory, case):
    contents, command = case
    _exit_code_on_file(tmp_path_factory.getbasetemp() / "mutated.json", contents, command)


@pytest.mark.parametrize("contents", RAW_FILES, ids=["not-utf-8", "nested-100000-deep"])
@pytest.mark.parametrize(
    "command",
    FILE_COMMANDS,
    ids=["check", "concepts", "valid", "filter-ideal", "coproduct", "pmorphism",
         "filter-ideal-algebra", "translate"],
)
def test_files_that_are_not_json_text_exit_2(tmp_path, contents, command):
    assert _exit_code_on_file(tmp_path / "raw.json", contents, command) == 2


SEQUENT_TOKENS = ("p", "q", "box", "top", "bot", "/\\", "\\/", "|-", "(", ")", ",", "x1", "?")
SEQUENT_COMMANDS = (["valid", F1], ["translate", SIG], ["translate", SIG, "--form", "pairing"])


@seed(20182)
@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.sampled_from(SEQUENT_TOKENS), max_size=12), st.sampled_from(SEQUENT_COMMANDS))
def test_drawn_sequent_text_keeps_the_exit_code_contract(tokens, command):
    _exit_code(command + [" ".join(tokens)])


@pytest.mark.parametrize(
    "argv",
    [
        ["valid", F1, "(" * 400 + "p" + ")" * 400 + " |- p"],
        ["translate", SIG, "box " * 250 + "p |- p"],
    ],
    ids=["valid-parenthesised", "translate-boxed"],
)
def test_deeply_nested_formula_text_exits_2(argv):
    proc = run_module(argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: input is nested too deeply\n"
