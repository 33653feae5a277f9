"""Parser, printer, and signature handling."""

import pytest
from hypothesis import given, seed, settings, strategies as st

from lekit import (
    Connective,
    ParseError,
    Signature,
    SignatureError,
    format_formula,
    format_sequent,
    parse_formula,
    parse_sequent,
    parse_signature,
    signature_from_dict,
)
from lekit.sampling import SIG_BOX
from lekit.syntax import (
    And,
    BOT,
    Conn,
    Or,
    Prop,
    Sequent,
    TOP,
    depth_of,
    props_of,
    validate_formula,
)

SIG_MIXED = Signature(
    (
        Connective("box", "G", 1, ("1",)),
        Connective("dia", "F", 1, ("1",)),
        Connective("arrow", "G", 2, ("d", "1")),
    )
)


def test_parse_atoms():
    assert parse_formula("p", SIG_BOX) == Prop("p")
    assert parse_formula("top", SIG_BOX) == TOP
    assert parse_formula("bot", SIG_BOX) == BOT


def test_parse_precedence():
    phi = parse_formula("p /\\ q \\/ r", SIG_BOX)
    assert phi == Or(And(Prop("p"), Prop("q")), Prop("r"))
    phi = parse_formula("p /\\ (q \\/ r)", SIG_BOX)
    assert phi == And(Prop("p"), Or(Prop("q"), Prop("r")))


def test_parse_unary_application():
    assert parse_formula("box p", SIG_BOX) == Conn("box", (Prop("p"),))
    assert parse_formula("box(p)", SIG_BOX) == Conn("box", (Prop("p"),))
    assert parse_formula("box box p", SIG_BOX) == Conn(
        "box", (Conn("box", (Prop("p"),)),)
    )
    # unary application binds tighter than conjunction
    assert parse_formula("box p /\\ q", SIG_BOX) == And(
        Conn("box", (Prop("p"),)), Prop("q")
    )


def test_parse_binary_connective():
    phi = parse_formula("arrow(p, q /\\ r)", SIG_MIXED)
    assert phi == Conn("arrow", (Prop("p"), And(Prop("q"), Prop("r"))))


def test_parse_sequent():
    seq = parse_sequent("box p |- p \\/ q", SIG_BOX)
    assert seq == Sequent(Conn("box", (Prop("p"),)), Or(Prop("p"), Prop("q")))


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("p /\\ ", SIG_BOX)
    assert exc.value.col is not None
    with pytest.raises(ParseError):
        parse_formula("arrow(p)", SIG_MIXED)  # wrong arity
    with pytest.raises(ParseError):
        parse_formula("unknown p", SIG_BOX)
    with pytest.raises(ParseError):
        parse_sequent("p", SIG_BOX)  # missing turnstile


# Every ParseError kind the formula parser raises, on input over several
# lines, with the (line, column) it reports: 1-based, the column counted
# in characters from the last newline, so a tab or a carriage return is one
# column and only "\n" ends a line.
PARSE_ERROR_POSITIONS = [
    (parse_formula, "p /\\\n  q $ r", "unexpected character '$'", 2, 5),
    (parse_formula, "p\r\n\t/ q", "unexpected character '/'", 2, 2),
    (parse_formula, "(p \\/ q\n  r)", "expected rpar, found 'r'", 2, 3),
    (parse_formula, "arrow(p,\n q\n q)", "expected rpar, found 'q'", 3, 2),
    (parse_formula, "p\n\n /\\ arrow\n  p", "expected lpar, found 'p'", 4, 3),
    (parse_formula, "p /\\\n\n  )", "expected a formula, found ')'", 3, 3),
    (parse_formula, "p /\\\n  ", "expected a formula, found ''", 2, 3),
    (parse_formula, "q \\/\n   arrow(p)", "connective 'arrow' expects 2 arguments, got 1", 2, 4),
    (parse_formula, "box p\n  q", "trailing input 'q'", 2, 3),
    (parse_sequent, "p\n q |- p", "expected '|-', found 'q'", 2, 2),
    (parse_sequent, "p |-\n\n", "expected a formula, found ''", 3, 1),
    (parse_sequent, "p |- q\n)", "trailing input ')'", 2, 1),
]


@pytest.mark.parametrize("parse, text, message, line, col", PARSE_ERROR_POSITIONS)
def test_parse_errors_report_line_and_column(parse, text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text, SIG_MIXED)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"{message} (line {line}, column {col})"


def test_reserved_words_rejected_as_props():
    with pytest.raises(ParseError):
        parse_formula("top /\\ bot \\/ top top", SIG_BOX)


def test_format_round_trip_examples():
    for text in (
        "p",
        "box p",
        "box box p",
        "p /\\ q \\/ r",
        "p /\\ (q \\/ r)",
        "arrow(p \\/ q, box p) /\\ dia bot",
        "top \\/ bot",
    ):
        phi = parse_formula(text, SIG_MIXED)
        assert parse_formula(format_formula(phi), SIG_MIXED) == phi


def test_format_sequent_round_trip():
    seq = parse_sequent("box p /\\ q |- dia(p \\/ bot)", SIG_MIXED)
    assert parse_sequent(format_sequent(seq), SIG_MIXED) == seq


def formula_strategy(depth):
    leaf = st.sampled_from([Prop("p"), Prop("q"), TOP, BOT])
    if depth == 0:
        return leaf
    sub = formula_strategy(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        sub.map(lambda f: Conn("box", (f,))),
        sub.map(lambda f: Conn("dia", (f,))),
        st.tuples(sub, sub).map(lambda t: Conn("arrow", t)),
    )


@seed(20188)
@settings(database=None)
@given(formula_strategy(4))
def test_print_parse_round_trip(phi):
    assert parse_formula(format_formula(phi), SIG_MIXED) == phi


def test_props_and_depth():
    phi = parse_formula("arrow(p, q) /\\ box r", SIG_MIXED)
    assert props_of(phi) == {"p", "q", "r"}
    assert depth_of(phi) == 2
    assert depth_of(TOP) == 0


def test_validate_formula_rejects_unknown_connective():
    with pytest.raises(SignatureError):
        validate_formula(Conn("nope", (TOP,)), SIG_BOX)
    with pytest.raises(SignatureError):
        validate_formula(Conn("box", (TOP, TOP)), SIG_BOX)


def test_signature_parsing_and_aliases():
    sig = signature_from_dict(
        {
            "connectives": [
                {"name": "box", "family": "G", "arity": 1, "order_type": ["one"]},
                {"name": "f", "family": "F", "arity": 2, "order_type": ["partial", "1"]},
            ]
        }
    )
    assert sig.connectives[0].order_type == ("1",)
    assert sig.connectives[1].order_type == ("d", "1")
    assert sig.connectives[1].arity == 2
    # JSON text path agrees with the dict path
    import json

    assert parse_signature(json.dumps(sig.to_dict())) == sig


def test_signature_rejects_bad_input():
    with pytest.raises(SignatureError):
        signature_from_dict(
            {"connectives": [{"name": "x", "family": "H", "arity": 1, "order_type": ["1"]}]}
        )
    with pytest.raises(SignatureError):
        signature_from_dict(
            {
                "connectives": [
                    {"name": "x", "family": "F", "arity": 1, "order_type": ["1"]},
                    {"name": "x", "family": "G", "arity": 1, "order_type": ["1"]},
                ]
            }
        )


def test_deep_nesting_is_a_parse_error():
    deep = "(" * 400 + "p" + ")" * 400
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_sequent(deep + " |- p", SIG_BOX)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(deep, SIG_BOX)
    assert parse_sequent("(" * 40 + "p" + ")" * 40 + " |- p", SIG_BOX) == Sequent(Prop("p"), Prop("p"))
