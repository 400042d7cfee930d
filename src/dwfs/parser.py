"""Text format for disjunctive programs and for emitted model states.

Grammar:
    program := rule*
    rule    := head ( ":-" body )? "."
    head    := atom ( "|" atom )*
    body    := literal ( "," literal )*
    literal := atom | "not" atom
    atom    := [a-zA-Z_][a-zA-Z0-9_]*

Blanks (space, tab, CR and LF) are insignificant and "%" starts a comment
that runs to the next LF. Only LF starts a new line of an error position.
Duplicate head atoms, duplicate body literals, and duplicate rules are
silently merged.

parse_program builds each rule as a (head, positive body, negative body)
triple of atom masks (core.atom_mask) as it scans, and the Program from the
set of those triples: it builds no Rule and no atom set, and the program's
rules are decoded from the triples only when read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import ModelState, Program, Rule


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int

    def __str__(self):
        return f"line {self.line}, column {self.column}"


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


_ATOM = r"[A-Za-z_][A-Za-z0-9_]*"
_IS_ATOM = re.compile(_ATOM).match
# A comment matches with an empty group; any character that is neither a
# blank nor the start of a token matches alone, as a stray token.
_TOKEN = re.compile(rf"%[^\n]*|({_ATOM}|:-|[|,.]|[^ \t\r\n])")
_PUNCT = frozenset(("|", ",", ".", ":-"))


def _error(text: str, tokens: list, k: int, message: str) -> ParseError:
    """The error at token k (k == len(tokens) - 1 is the end of input).

    The whole text is read as tokens before any rule is parsed, so the first
    stray token, wherever it is, outranks the grammar error. Positions are
    computed only here: only "\n" starts a line, and a column counts
    characters.
    """
    for j, tok in enumerate(tokens[:-1]):
        if tok not in _PUNCT and not _IS_ATOM(tok):
            k, message = j, f"unexpected character {tok!r}"
            break
    offsets = [m.start() for m in _TOKEN.finditer(text) if m[1]]
    offsets.append(len(text))
    at = offsets[k]
    line = text.count("\n", 0, at) + 1
    return ParseError(message, SourceSpan(line, at - text.rfind("\n", 0, at)))


def _new_atom(text: str, tokens: list, i: int, ids: dict, context) -> int:
    """Intern tokens[i], a name not seen before, or raise the error for a
    token that is no atom. context says where the atom stands; None means a
    body literal, where a "not" was already read as negation."""
    tok = tokens[i]
    if tok == "not":
        raise _error(text, tokens, i, f"'not' is not allowed {context}")
    if not _IS_ATOM(tok):
        expected = f"an atom {context}" if context else "a body literal"
        raise _error(text, tokens, i, f"expected {expected}, found {tok or 'end of input'!r}")
    a = ids[tok] = len(ids)
    return a


def parse_program(text: str) -> Program:
    """Parse program text; atoms are interned in first-occurrence order."""
    tokens = _TOKEN.findall(text)
    if "" in tokens:
        tokens = [tok for tok in tokens if tok]
    tokens.append("")  # the end of input
    end = len(tokens) - 1
    ids: dict[str, int] = {}
    rules = set()  # (head, positive body, negative body) mask triples
    i = 0
    while i < end:
        head = 0
        while True:
            a = ids.get(tokens[i])
            if a is None:
                a = _new_atom(text, tokens, i, ids, "in a rule head")
            head |= 1 << a
            i += 1
            if tokens[i] != "|":
                break
            i += 1
        pos = neg = 0
        tok = tokens[i]
        i += 1
        if tok == ":-":
            while True:
                if tokens[i] == "not":
                    i += 1
                    a = ids.get(tokens[i])
                    if a is None:
                        a = _new_atom(text, tokens, i, ids, "after 'not'")
                    neg |= 1 << a
                else:
                    a = ids.get(tokens[i])
                    if a is None:
                        a = _new_atom(text, tokens, i, ids, None)
                    pos |= 1 << a
                tok = tokens[i + 1]
                i += 2
                if tok == ",":
                    continue
                if tok == ".":
                    break
                found = tok or "end of input"
                raise _error(text, tokens, i - 1, f"expected ',' or '.', found {found!r}")
        elif tok != ".":
            found = tok or "end of input"
            raise _error(text, tokens, i - 1, f"expected ':-' or '.', found {found!r}")
        rules.add((head, pos, neg))
    return Program._of(tuple(ids), masks=frozenset(rules))


def render_rule(r: Rule, names) -> str:
    head = " | ".join(sorted(names[a] for a in r.head))
    body = sorted(names[b] for b in r.pos_body)
    body += ["not " + n for n in sorted(names[c] for c in r.neg_body)]
    if body:
        return f"{head} :- {', '.join(body)}."
    return f"{head}."


def _rule_name_key(r: Rule, names):
    return (
        tuple(sorted(names[a] for a in r.head)),
        tuple(sorted(names[a] for a in r.pos_body)),
        tuple(sorted(names[a] for a in r.neg_body)),
    )


def render_program(p: Program) -> str:
    """Deterministic, name-ordered text that re-parses to an equal Program."""
    names = p.atom_names
    lines = [render_rule(r, names) for r in sorted(p.rules, key=lambda r: _rule_name_key(r, names))]
    return "\n".join(lines) + ("\n" if lines else "")


def render_state(s: ModelState, names) -> str:
    """Canonical core as text: one disjunction or 'not a' line each, sorted."""
    pos_lines = sorted(tuple(sorted(names[a] for a in d)) for d in s.pos)
    lines = [" | ".join(t) for t in pos_lines]
    lines += ["not " + n for n in sorted(names[a] for a in s.false_atoms)]
    return "\n".join(lines) + ("\n" if lines else "")


def state_json(s: ModelState, names) -> dict:
    """Machine-readable state document.

    Undefined atoms are those neither unit-true nor false; atoms appearing
    only inside non-unit true disjunctions count as undefined.
    """
    unit_true = s.unit_true_atoms()
    undefined = set(range(len(names))) - unit_true - s.false_atoms
    return {
        "true_disjunctions": sorted(sorted(names[a] for a in d) for d in s.pos),
        "false_atoms": sorted(names[a] for a in s.false_atoms),
        "undefined_atoms": sorted(names[a] for a in undefined),
    }
