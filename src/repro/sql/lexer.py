"""SQL tokenizer.

Produces a flat token list for the recursive-descent parser.  Keywords
are case-insensitive; identifiers are normalized to lower case; string
literals use single quotes with ``''`` escaping.
"""

import re
from dataclasses import dataclass


class SQLSyntaxError(ValueError):
    """Raised on malformed SQL."""


KEYWORDS = frozenset("""
    select from where group by having order asc desc limit distinct
    create table insert into values delete update set join inner on
    and or not between in is as integer int bigint smallint tinyint
    varchar text string boolean bool real float double true false null
    explain profile partition
    begin commit rollback abort transaction work
    materialized view drop
""".split())

_NUMBER = r"\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+"
_STRING = r"'(?:[^']|'')*'"

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>{0})
  | (?P<string>{1})
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|<=|>=|!=|[=<>+\-*/%(),.;])
""".format(_NUMBER, _STRING), re.VERBOSE)

#: Token kinds that carry a literal value.
LITERALS = ("number", "string")

#: What ``lift`` has to see to agree with ``tokenize``: comments (so a
#: quote inside one is no string), strings, and numbers that do not
#: continue an identifier.  The leading lookahead rejects every other
#: position with one character test (the scan runs about twice as fast).
_LIFT_RE = re.compile(
    r"(?=[-'0-9])(?:--[^\n]*|({0})|(?<![A-Za-z_0-9])({1}))".format(
        _STRING, _NUMBER))

#: Stand-ins for lifted literals in a shape (text that tokenizes holds
#: neither outside a literal).
NUMBER_MARK = "\x00"
STRING_MARK = "\x01"


def _number(raw):
    return float(raw) if ("." in raw or "e" in raw or "E" in raw) \
        else int(raw)


def _string(raw):
    return raw[1:-1].replace("''", "'")


def lift(text):
    """Lift the number and string literals out of SQL text in one pass.

    Returns ``(shape, values)``: the text with each literal replaced by
    a marker of its kind, and the literal values in text order — the
    values ``tokenize`` gives the same literals.  Texts with one shape
    tokenize to one token-kind sequence.
    """
    pieces = []
    values = []
    start = 0
    for match in _LIFT_RE.finditer(text):
        string, number = match.group(1, 2)
        if string is None and number is None:
            continue  # a comment: stays in the shape
        pieces.append(text[start:match.start()])
        if number is not None:
            pieces.append(NUMBER_MARK)
            values.append(_number(number))
        else:
            pieces.append(STRING_MARK)
            values.append(_string(string))
        start = match.end()
    pieces.append(text[start:])
    return "".join(pieces), values


@dataclass(frozen=True)
class Token:
    kind: str   # 'keyword', 'ident', 'number', 'string', 'op', 'end'
    value: object
    position: int

    def matches(self, kind, value=None):
        return self.kind == kind and (value is None or self.value == value)


END = "end"


def tokenize(text):
    """Tokenize SQL text into a list of Tokens (terminated by an END)."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SQLSyntaxError(
                "unexpected character {0!r} at position {1}".format(
                    text[pos], pos))
        pos = match.end()
        if match.lastgroup in ("ws", "comment"):
            continue
        raw = match.group()
        if match.lastgroup == "number":
            tokens.append(Token("number", _number(raw), match.start()))
        elif match.lastgroup == "string":
            tokens.append(Token("string", _string(raw), match.start()))
        elif match.lastgroup == "ident":
            lowered = raw.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, match.start()))
            else:
                tokens.append(Token("ident", lowered, match.start()))
        else:
            tokens.append(Token("op", raw, match.start()))
    tokens.append(Token(END, None, len(text)))
    return tokens
