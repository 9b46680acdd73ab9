"""SQL tokenizer.

Produces a flat token list for the recursive-descent parser.  Keywords
are case-insensitive; identifiers are normalized to lower case; string
literals use single quotes with ``''`` escaping.  :func:`lift` takes
the literals out of a text in one pass instead, and
:func:`lifted_rows` reads an INSERT's VALUES rows from what it leaves.
"""

import functools
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

_REAL = r"\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+"
_NUMBER = _REAL + r"|\d+"
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
#: continue an identifier, as the groups (comment, string, real,
#: integer).  The leading lookahead rejects every other position with
#: one character test (the scan runs about twice as fast).
_LIFT_RE = re.compile(
    r"(?=[-'0-9])(?:(--[^\n]*)|({0})|(?<![A-Za-z_0-9])(?:({1})|(\d+)))"
    .format(_STRING, _REAL))

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
    parts = _LIFT_RE.split(text)  # text, then 4 groups per match
    comments, strings = parts[1::5], parts[2::5]
    values = [int(integer) if integer is not None else
              float(real) if real is not None else _string(string)
              for comment, string, real, integer
              in zip(comments, strings, parts[3::5], parts[4::5])
              if comment is None]
    parts[1::5] = [comment or (NUMBER_MARK if string is None else
                               STRING_MARK)
                   for comment, string in zip(comments, strings)]
    for period in (5, 4, 3):
        del parts[2::period]  # a literal's groups; its mark stays
    return "".join(parts), values


#: One VALUES item of a lifted shape: a literal mark, a negated number
#: mark, or a NULL/TRUE/FALSE keyword (case folded in ASCII only, as
#: ``tokenize`` folds); ``_ITEMS`` finds them in order.
_ITEM = r"(?:-\s*\x00|[\x00\x01]|(?ai:null|true|false))"
_ITEMS = re.compile(r"(-)?\s*\x00|\x01|(?ai:(null|true|false))")
_KEYWORD_VALUES = {"null": None, "true": True, "false": False}


def lifted_rows(tail, values):
    """The rows of a lifted ``VALUES`` tail: its ``values`` grouped
    into tuples, or None unless the tail is comma-joined rows of
    ``_ITEM``s, all as wide as the first, with an optional ``;``.
    Such a tail holds nothing but whitespace, punctuation, keywords and
    whole literals, so ``tokenize`` would read the same values.  Items
    are walked one by one only when the tail holds a minus or a
    keyword; every other tail is grouped by stride."""
    width = tail.count(",", 0, tail.find(")")) + 1
    if not _rows_grammar(width).fullmatch(tail):
        return None
    if "-" in tail or len(values) != tail.count("(") * width:
        walked = iter(values)
        values = [_KEYWORD_VALUES[word.lower()] if word else
                  -next(walked) if minus else next(walked)
                  for minus, word in _ITEMS.findall(tail)]
    return list(zip(*[iter(values)] * width))


@functools.lru_cache(maxsize=64)
def _rows_grammar(width):
    row = r"\(\s*{0}(?:\s*,\s*{0}){{{1}}}\s*\)".format(_ITEM, width - 1)
    return re.compile(r"\s*{0}(?:\s*,\s*{0})*\s*;?\s*".format(row))


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
