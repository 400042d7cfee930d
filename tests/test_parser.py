import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from dwfs import (
    GeneratorConfig,
    ParseError,
    Program,
    Rule,
    parse_program,
    random_program,
    render_program,
    render_state,
    state_json,
)
from dwfs.core import atom_mask
from conftest import SUPPORT_DEMO, TRAVEL, atoms, state


def test_duplicate_body_literals_merge():
    p = parse_program("a | b :- c, c.")
    (rule,) = p.rules
    assert len(rule.pos_body) == 1
    assert sorted(p.atom_names) == ["a", "b", "c"]


def test_travel_program_shape():
    p = parse_program(TRAVEL)
    assert len(p.rules) == 2
    heads = {frozenset(p.atom_names[a] for a in r.head) for r in p.rules}
    assert heads == {frozenset({"b", "l"}), frozenset({"l", "p"})}


def test_duplicate_rules_merge():
    p = parse_program("a :- b. a :- b.")
    assert len(p.rules) == 1


def test_parsed_rules_carry_their_masks():
    # The parser builds each rule's masks as it scans; they must be those a
    # Rule built from the same parts computes.
    programs = [random_program(GeneratorConfig(seed, num_atoms=6, num_rules=8))
                for seed in range(30)]
    programs += [random_program(GeneratorConfig(seed, num_atoms=24, num_rules=24, max_head=2,
                                                max_pos_body=1, max_neg_body=2))
                 for seed in range(30)]
    for q in programs:
        p = parse_program(render_program(q))
        assert p.rule_names() == q.rule_names()
        for r in p.rules:
            assert r.head_mask == atom_mask(r.head)
            assert r.pos_mask == atom_mask(r.pos_body)
            assert r.neg_mask == atom_mask(r.neg_body)
            built = Rule(r.head, r.pos_body, r.neg_body)
            assert r == built and hash(r) == hash(built)


def _bench_family_texts():
    """Rendered criterion-2, sparse 18 to 24 atom and dense programs."""
    configs = [GeneratorConfig(seed, 6, 8) for seed in range(30)]
    configs += [GeneratorConfig(seed, 18 + seed % 7, 18 + seed % 7, 2, 1, 2)
                for seed in range(30)]
    configs += [GeneratorConfig(seed, 10, 16, 2, 2, 2) for seed in range(30)]
    return [render_program(random_program(cfg)) for cfg in configs]


def test_parsed_program_equals_the_program_of_its_rules_and_its_reparse():
    # The parser's mask triples make a Program equal, and hashing equal, to
    # the one built from its decoded Rules and to its own re-parse.
    for text in _bench_family_texts():
        p = parse_program(text)
        for q in (Program(p.rules, p.atom_names), parse_program(render_program(p))):
            assert p == q and hash(p) == hash(q)
            assert p.masks == q.masks


def test_repr_decodes_nothing():
    p = parse_program("a | b :- c, not d. a | b :- c, not d. c.")
    assert repr(p) == "Program(2 rules over 4 atoms)"
    assert p._rules is None


def test_duplicate_atoms_and_rules_merge_in_the_mask_store():
    p = parse_program("a | a | b :- c, c, not d, not d. b | a :- c, not d. a :- c.")
    assert len(p.masks) == 2 and len(p.rules) == 2
    assert p == parse_program("b | a :- c, not d. a :- c.")
    assert Program(p.rules, p.atom_names).masks == p.masks


def test_interning_follows_first_occurrence():
    p = parse_program("b | a :- not c. c.")
    assert p.atom_names == ("b", "a", "c")


def test_comments_and_whitespace_ignored():
    p = parse_program("% intro\n  a :- % trailing\n    b.  % end\n")
    assert len(p.rules) == 1


def test_empty_body_after_arrow_is_error():
    with pytest.raises(ParseError):
        parse_program("a :- .")


def test_not_in_head_is_error():
    with pytest.raises(ParseError) as err:
        parse_program("not a.")
    assert err.value.span.line == 1


def test_missing_period_is_error():
    with pytest.raises(ParseError):
        parse_program("a :- b")


def test_error_span_points_into_text():
    with pytest.raises(ParseError) as err:
        parse_program("a.\n b | | c.")
    assert err.value.span.line == 2
    assert err.value.span.column >= 4


def test_bad_character_is_error():
    with pytest.raises(ParseError):
        parse_program("a :- b & c.")


# Each malformed text with its exact (message, line, column). Only "\n"
# starts a line; tabs and "\r" count one column each; a character no token
# may start outranks any grammar error, wherever it is.
MALFORMED = [
    ("a :- b & c.", "unexpected character '&'", 1, 8),
    ("a : b.", "unexpected character ':'", 1, 3),
    ("1a.", "unexpected character '1'", 1, 1),
    ("\u00e9.", "unexpected character '\u00e9'", 1, 1),
    ("a.\x0bb.", "unexpected character '\\x0b'", 1, 3),
    ("a :- b.\xa0", "unexpected character '\\xa0'", 1, 8),
    ("a :- . &", "unexpected character '&'", 1, 8),
    ("a.\nb :- c. % fine\n  x ::- y.", "unexpected character ':'", 3, 5),
    ("not a.", "'not' is not allowed in a rule head", 1, 1),
    ("a :- not not b.", "'not' is not allowed after 'not'", 1, 10),
    ("a || b.", "expected an atom in a rule head, found '|'", 1, 4),
    ("a |.", "expected an atom in a rule head, found '.'", 1, 4),
    (":- a.", "expected an atom in a rule head, found ':-'", 1, 1),
    ("a :- .", "expected a body literal, found '.'", 1, 6),
    ("a :- , b.", "expected a body literal, found ','", 1, 6),
    ("a :- not .", "expected an atom after 'not', found '.'", 1, 10),
    ("a :- not", "expected an atom after 'not', found 'end of input'", 1, 9),
    ("a b.", "expected ':-' or '.', found 'b'", 1, 3),
    ("a\tb.", "expected ':-' or '.', found 'b'", 1, 3),
    ("a", "expected ':-' or '.', found 'end of input'", 1, 2),
    ("a :- b", "expected ',' or '.', found 'end of input'", 1, 7),
    ("a :- b, c|d.", "expected ',' or '.', found '|'", 1, 10),
    ("\t\ta :- .", "expected a body literal, found '.'", 1, 8),
    ("a.\r\n  b | .", "expected an atom in a rule head, found '.'", 2, 7),
    ("a.\rb :- .", "expected a body literal, found '.'", 1, 9),
    ("a.\nb.\nc :- d e.", "expected ',' or '.', found 'e'", 3, 8),
    ("a.\n\n   b :- c,\n  d e.", "expected ',' or '.', found 'e'", 4, 5),
    ("% only\na :-", "expected a body literal, found 'end of input'", 2, 5),
    ("a :- b   ", "expected ',' or '.', found 'end of input'", 1, 10),
    ("a :- b %c", "expected ',' or '.', found 'end of input'", 1, 10),
    ("a.\nb :- c %c\n", "expected ',' or '.', found 'end of input'", 3, 1),
]


@pytest.mark.parametrize("text, message, line, column", MALFORMED)
def test_parse_error_message_and_position(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert (err.value.message, err.value.span.line, err.value.span.column) == (
        message,
        line,
        column,
    )
    assert str(err.value) == f"line {line}, column {column}: {message}"


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|:-|[|,.]")
_COMMENT = st.text(st.characters(blacklist_characters="\n"), max_size=6).map(
    lambda body: "%" + body + "\n"
)
_BLANK_OR_COMMENT = st.one_of(st.sampled_from(" \t\r\n"), _COMMENT)
_GAP = st.lists(_BLANK_OR_COMMENT, max_size=3).map("".join)
_SEPARATOR = st.lists(_BLANK_OR_COMMENT, min_size=1, max_size=3).map("".join)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_blanks_and_comments_between_tokens_change_nothing(seed, data):
    rendered = render_program(random_program(GeneratorConfig(seed, num_atoms=5, num_rules=5)))
    text = data.draw(_GAP)
    for tok in _TOKEN.findall(rendered):
        # Two atoms in a row ("not a") need a blank between them.
        text += tok + data.draw(_SEPARATOR if tok == "not" else _GAP)
    text += data.draw(st.sampled_from(["", "%", "% end"]))
    want, got = parse_program(rendered), parse_program(text)
    assert got.rule_names() == want.rule_names()
    assert got.atom_names == want.atom_names


def test_render_round_trip_on_example():
    p = parse_program(SUPPORT_DEMO)
    assert parse_program(render_program(p)) == p


def test_render_formats_rule():
    p = parse_program("b|a :- c , not d.")
    assert render_program(p) == "a | b :- c, not d.\n"


def test_render_empty_program():
    p = parse_program("")
    assert render_program(p) == ""


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_render_parse_identity_and_idempotence(seed):
    p = random_program(GeneratorConfig(seed, num_atoms=5, num_rules=5))
    text = render_program(p)
    reparsed = parse_program(text)
    assert reparsed.rule_names() == p.rule_names()
    assert render_program(reparsed) == text


def test_render_state_lines():
    p = parse_program("a | b. d. c.")
    s = state(p, pos=["a b", "d"], false="c")
    assert render_state(s, p.atom_names) == "a | b\nd\nnot c\n"


def test_render_state_empty():
    from dwfs import ModelState

    assert render_state(ModelState(), ()) == ""


def test_render_state_travel_value():
    p = parse_program(TRAVEL)
    s = state(p, pos=["l p"], false="b")
    assert render_state(s, p.atom_names) == "l | p\nnot b\n"


def test_state_json_schema():
    p = parse_program("a | b. d. c. e.")
    s = state(p, pos=["a b", "d"], false="c")
    doc = state_json(s, p.atom_names)
    assert doc == {
        "true_disjunctions": [["a", "b"], ["d"]],
        "false_atoms": ["c"],
        "undefined_atoms": ["a", "b", "e"],
    }
    json.dumps(doc)


def test_state_json_unit_true_not_undefined():
    p = parse_program("a. b.")
    s = state(p, pos=["a"])
    doc = state_json(s, p.atom_names)
    assert doc["undefined_atoms"] == ["b"]
