"""Boolean intent rules over scene metadata.

Grammar (binds tightest to loosest: ``not``, ``and``, ``or``)::

    rule    := or
    or      := and ("or" and)*
    and     := not ("and" not)*
    not     := "not" not | primary
    primary := "(" rule ")" | "true" | "false" | "exists" "(" rule ")" | pred
    pred    := ident op literal
             | "bbox" "within" "box" "(" num "," num "," num "," num ")"
    op      := "==" | "!=" | "<" | "<=" | ">" | ">="

Identifiers match ``[a-zA-Z_][a-zA-Z0-9_]*`` (keywords are reserved and
case-sensitive), string literals are double-quoted with ``\\"`` and ``\\\\``
escapes, numbers are decimal.  Outside ``exists`` a field predicate reads
``scene_attributes``; inside it reads the bound instance (``category`` or its
``attributes``).  ``bbox within box(x0, y0, x1, y1)`` tests whether the
instance's bbox center lies in the closed box, and is legal only inside
``exists``; nesting ``exists`` within ``exists`` is a scope error.

Evaluation is total: missing fields make ``==`` and the orderings false and
``!=`` true.  A float literal compares numerically; so does an ordering
against a string literal (``count < "9"``), which coerces both sides to
float.  Failing numeric coercion makes the predicate false.  ``==`` and
``!=`` against a string literal compare the stored value as it is.  Empty
conjunctions are true and empty disjunctions false.  ``evaluate`` also takes
ASTs the parser rejects: a ``bbox within`` outside ``exists`` is false, and
an ``exists`` nested in another ranges over the scene's instances again.

A rule is evaluated column-wise over the whole corpus, not scene by scene,
reading the columns of a ``SceneTable``: each field is factorized once into
integer codes, each predicate runs once per distinct value, and each
connective is one array operation.  Parentheses, ``not`` and ``exists``
nest at most ``MAX_RULE_DEPTH`` levels deep, together.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import RuleScopeError, RuleSyntaxError, ValidationError
from .records import MetadataRecord, SceneTable

RESERVED_WORDS = frozenset(
    {"and", "or", "not", "true", "false", "exists", "bbox", "within", "box"}
)
COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
# How deep parentheses, ``not`` and ``exists`` may nest, together.  The
# parser, printer and evaluator recurse once or a few times per level, so
# the bound keeps every rule the parser accepts well inside the
# interpreter's recursion limit.
MAX_RULE_DEPTH = 100


class Rule:
    """Base class for rule AST nodes (structural equality via dataclasses)."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueRule(Rule):
    pass


@dataclass(frozen=True)
class FalseRule(Rule):
    pass


@dataclass(frozen=True)
class Not(Rule):
    child: Rule


@dataclass(frozen=True)
class And(Rule):
    children: tuple[Rule, ...]


@dataclass(frozen=True)
class Or(Rule):
    children: tuple[Rule, ...]


@dataclass(frozen=True)
class Exists(Rule):
    body: Rule


@dataclass(frozen=True)
class Pred(Rule):
    """Field comparison; a float literal selects numeric semantics."""

    field: str
    op: str
    literal: str | float

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValidationError(f"pred: unknown operator {self.op!r}")
        if isinstance(self.literal, bool) or not isinstance(self.literal, (str, int, float)):
            raise ValidationError(f"pred: literal must be a string or number")
        if isinstance(self.literal, int):
            object.__setattr__(self, "literal", float(self.literal))


@dataclass(frozen=True)
class Within(Rule):
    """Instance bbox-center containment in a closed normalized box."""

    box: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.box) != 4:
            raise ValidationError("within: box needs exactly 4 coordinates")
        x0, y0, x1, y1 = self.box
        for v in self.box:
            if not 0.0 <= float(v) <= 1.0:
                raise ValidationError(f"within: coordinate {v!r} outside [0, 1]")
        if x0 > x1 or y0 > y1:
            raise ValidationError(f"within: box corners out of order {self.box}")


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # op | lparen | rparen | comma | number | ident | string | eof
    text: str
    pos: int  # character offset into the source
    value: str | float | None = None


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<op>==|!=|<=|>=|<|>)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<number>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _scan_string(text: str, pos: int) -> tuple[_Token, int]:
    # text[pos] == '"'
    out: list[str] = []
    i = pos + 1
    while i < len(text):
        ch = text[i]
        if ch == '"':
            return _Token("string", text[pos : i + 1], pos, "".join(out)), i + 1
        if ch == "\\":
            if i + 1 >= len(text):
                break
            esc = text[i + 1]
            if esc not in ('"', "\\"):
                raise RuleSyntaxError(
                    f"bad string escape \\{esc}", _byte_offset(text, i)
                )
            out.append(esc)
            i += 2
            continue
        out.append(ch)
        i += 1
    raise RuleSyntaxError("unterminated string literal", _byte_offset(text, pos))


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos] == '"':
            token, pos = _scan_string(text, pos)
            yield token
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(
                f"unexpected character {text[pos]!r}", _byte_offset(text, pos)
            )
        kind = m.lastgroup
        assert kind is not None
        if kind != "ws":
            value: str | float | None = None
            if kind == "number":
                value = float(m.group())
            yield _Token(kind, m.group(), m.start(), value)
        pos = m.end()
    yield _Token("eof", "", n)


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.i = 0
        self.depth = 0  # open parentheses, nots and exists around the current token

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()) -> RuleSyntaxError:
        return RuleSyntaxError(message, _byte_offset(self.text, self.cur.pos), expected)

    def unexpected(self, expected: tuple[str, ...]) -> RuleSyntaxError:
        """The error for the current token where one of ``expected`` belongs."""
        found = "end of input" if self.cur.kind == "eof" else repr(self.cur.text)
        return self.error(f"unexpected {found}", expected)

    def expect(self, kind: str, expected_label: str) -> _Token:
        if self.cur.kind != kind:
            raise self.unexpected((expected_label,))
        return self.advance()

    def expect_word(self, word: str) -> None:
        if self.cur.kind != "ident" or self.cur.text != word:
            raise self.unexpected((word,))
        self.advance()

    def at_word(self, word: str) -> bool:
        return self.cur.kind == "ident" and self.cur.text == word

    def descend(self) -> None:
        """Enter one nesting level at the current token, which opens it."""
        if self.depth == MAX_RULE_DEPTH:
            raise self.error(f"rule nested deeper than {MAX_RULE_DEPTH} levels")
        self.depth += 1

    # grammar productions -------------------------------------------------

    def parse_rule(self) -> Rule:
        node = self.parse_or()
        if self.cur.kind != "eof":
            raise self.error(f"unexpected trailing input {self.cur.text!r}", ("end of input",))
        return node

    def parse_or(self) -> Rule:
        parts = [self.parse_and()]
        while self.at_word("or"):
            self.advance()
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        return Or(tuple(parts))

    def parse_and(self) -> Rule:
        parts = [self.parse_not()]
        while self.at_word("and"):
            self.advance()
            parts.append(self.parse_not())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def parse_not(self) -> Rule:
        if self.at_word("not"):
            self.descend()
            self.advance()
            node = Not(self.parse_not())
            self.depth -= 1
            return node
        return self.parse_primary()

    def parse_primary(self) -> Rule:
        tok = self.cur
        if tok.kind == "lparen":
            self.descend()
            self.advance()
            node = self.parse_or()
            self.expect("rparen", ")")
            self.depth -= 1
            return node
        if tok.kind == "ident":
            if tok.text == "true":
                self.advance()
                return TrueRule()
            if tok.text == "false":
                self.advance()
                return FalseRule()
            if tok.text == "exists":
                self.descend()
                self.advance()
                self.expect("lparen", "(")
                body = self.parse_or()
                self.expect("rparen", ")")
                self.depth -= 1
                return Exists(body)
            if tok.text == "bbox":
                return self.parse_within()
            if tok.text in RESERVED_WORDS:
                raise self.error(f"unexpected keyword {tok.text!r}", ("predicate", "(", "true", "false"))
            return self.parse_pred()
        raise self.unexpected(("(", "not", "true", "false", "exists", "identifier"))

    def parse_pred(self) -> Rule:
        field_tok = self.advance()
        if self.cur.kind != "op":
            raise self.unexpected(COMPARISON_OPS)
        op = self.advance().text
        lit_tok = self.cur
        if lit_tok.kind == "string" or lit_tok.kind == "number":
            self.advance()
            assert lit_tok.value is not None or lit_tok.kind == "string"
            literal = lit_tok.value if lit_tok.value is not None else ""
            return Pred(field=field_tok.text, op=op, literal=literal)
        raise self.unexpected(("string literal", "number"))

    def parse_within(self) -> Rule:
        start = self.cur
        self.expect_word("bbox")
        self.expect_word("within")
        self.expect_word("box")
        self.expect("lparen", "(")
        coords: list[float] = []
        for i in range(4):
            if i:
                self.expect("comma", ",")
            tok = self.expect("number", "number")
            coords.append(float(tok.value))  # type: ignore[arg-type]
        self.expect("rparen", ")")
        try:
            return Within(box=(coords[0], coords[1], coords[2], coords[3]))
        except ValidationError as exc:
            raise RuleSyntaxError(str(exc), _byte_offset(self.text, start.pos)) from None


def parse_rule(text: str) -> Rule:
    """Parse a rule string into an AST; scope-checks the result.

    Raises :class:`RuleSyntaxError` with a byte offset and the expected
    tokens on malformed input, :class:`RuleScopeError` on misplaced
    constructs.  Never raises anything else on string input.
    """
    rule = _Parser(text).parse_rule()
    validate_scopes(rule)
    return rule


def validate_scopes(rule: Rule) -> None:
    """Check scoping: ``bbox within`` only inside ``exists``, no nested ``exists``."""
    _walk_scopes(rule, in_exists=False)


def _walk_scopes(node: Rule, in_exists: bool) -> None:
    if isinstance(node, Within):
        if not in_exists:
            raise RuleScopeError("bbox within is only valid inside exists(...)")
    elif isinstance(node, Exists):
        if in_exists:
            raise RuleScopeError("exists(...) cannot be nested inside exists(...)")
        _walk_scopes(node.body, True)
    elif isinstance(node, Not):
        _walk_scopes(node.child, in_exists)
    elif isinstance(node, (And, Or)):
        for child in node.children:
            _walk_scopes(child, in_exists)


# ---------------------------------------------------------------------------
# printer


def _format_number(v: float) -> str:
    return repr(float(v))


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def pretty_print(rule: Rule) -> str:
    """Render a rule to canonical text; ``parse_rule`` of the result is the
    identity on parser-produced ASTs.

    ``And``/``Or`` nodes need at least two children to be printable (the
    grammar has no empty or unary connective syntax).
    """
    return _pp(rule, 0)


def _pp(node: Rule, level: int) -> str:
    # precedence levels: 0 = or, 1 = and, 2 = not/primary
    if isinstance(node, TrueRule):
        return "true"
    if isinstance(node, FalseRule):
        return "false"
    if isinstance(node, Or):
        if len(node.children) < 2:
            raise ValidationError("pretty_print: Or needs at least 2 children")
        text = " or ".join(_pp(c, 1) for c in node.children)
        return f"({text})" if level > 0 else text
    if isinstance(node, And):
        if len(node.children) < 2:
            raise ValidationError("pretty_print: And needs at least 2 children")
        text = " and ".join(_pp(c, 2) for c in node.children)
        return f"({text})" if level > 1 else text
    if isinstance(node, Not):
        return "not " + _pp(node.child, 2)
    if isinstance(node, Exists):
        return f"exists({_pp(node.body, 0)})"
    if isinstance(node, Within):
        coords = ", ".join(_format_number(v) for v in node.box)
        return f"bbox within box({coords})"
    if isinstance(node, Pred):
        lit = _quote(node.literal) if isinstance(node.literal, str) else _format_number(node.literal)
        return f"{node.field} {node.op} {lit}"
    raise ValidationError(f"pretty_print: unknown node {type(node).__name__}")


# ---------------------------------------------------------------------------
# evaluator
#
# Each node yields a bool array with one entry per scene (scene scope) or one
# per instance of the corpus (instance scope, inside ``exists``).

_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _holds(pred: Pred, value: object) -> bool:
    """Whether one field value (None when absent) satisfies the predicate."""
    if value is None:
        # absent field: inequality holds, everything else fails
        return pred.op == "!="
    if isinstance(pred.literal, str):
        if pred.op == "==":
            return value == pred.literal
        if pred.op == "!=":
            return value != pred.literal
    # numeric literal, or an ordering against a string literal: coerce both
    # sides numerically; a value that does not coerce fails the predicate
    try:
        return _OPS[pred.op](float(value), float(pred.literal))  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        return False


def _factorize(values: list[object]) -> tuple[np.ndarray, list[object]]:
    """An integer code per value, and the distinct values in code order.

    Codes are keyed by type and value, so ``1``, ``1.0`` and ``True`` never
    share one; absent (None) gets a code like any other value.
    """
    index: dict[tuple[type, object], int] = {}
    try:
        codes = [index.setdefault((type(v), v), len(index)) for v in values]
    except TypeError:
        # an unhashable value (only hand-built records hold one): every value
        # gets a code of its own
        return np.arange(len(values)), values
    return np.array(codes, dtype=np.intp), [v for _, v in index]


def _mask(node: Rule, table: SceneTable, in_exists: bool, columns: dict) -> np.ndarray:
    """The node's truth per scene, or per instance inside ``exists``.
    ``columns`` holds each field's codes once factorized, for this table."""
    size = len(table.categories) if in_exists else len(table)
    if isinstance(node, TrueRule):
        return np.ones(size, dtype=bool)
    if isinstance(node, FalseRule):
        return np.zeros(size, dtype=bool)
    if isinstance(node, Not):
        return ~_mask(node.child, table, in_exists, columns)
    if isinstance(node, And):
        out = np.ones(size, dtype=bool)
        for child in node.children:
            out &= _mask(child, table, in_exists, columns)
        return out
    if isinstance(node, Or):
        out = np.zeros(size, dtype=bool)
        for child in node.children:
            out |= _mask(child, table, in_exists, columns)
        return out
    if isinstance(node, Exists):
        hit = np.zeros(len(table), dtype=bool)
        hit[table.owner[_mask(node.body, table, True, columns)]] = True
        # a nested exists (hand-built ASTs only) ranges over the bound
        # instance's scene, so its result is that scene's
        return hit[table.owner] if in_exists else hit
    if isinstance(node, Within):
        if not in_exists:
            return np.zeros(size, dtype=bool)  # unscoped bbox test is vacuously false
        # bbox centres, as ``Instance.center`` computes them
        box = table.bbox
        cx, cy = (box[:, 0] + box[:, 2]) / 2.0, (box[:, 1] + box[:, 3]) / 2.0
        x0, y0, x1, y1 = node.box
        return (x0 <= cx) & (cx <= x1) & (y0 <= cy) & (cy <= y1)
    if isinstance(node, Pred):
        key = (node.field, in_exists)
        if key not in columns:
            if not in_exists:
                values = [attrs.get(node.field) for attrs in table.scene_attributes]
            elif node.field == "category":
                values = table.categories
            else:
                values = [attrs.get(node.field) for attrs in table.attributes]
            columns[key] = _factorize(values)
        codes, distinct = columns[key]
        truth = np.fromiter((_holds(node, v) for v in distinct), dtype=bool, count=len(distinct))
        return truth[codes]
    raise ValidationError(f"evaluate: unknown node {type(node).__name__}")


def evaluate(rule: Rule, meta: MetadataRecord) -> bool:
    """Decide whether a scene satisfies the rule.  Total: never raises on
    well-formed ASTs, whatever the metadata contents."""
    return bool(_mask(rule, SceneTable.from_records([meta]), False, {})[0])


def retrieve_by_rule(rule: Rule, corpus: Sequence[MetadataRecord]) -> list[str]:
    """Scene ids of all records satisfying the rule, in corpus order.  A
    ``SceneTable`` (what ``load_metadata`` returns) is read as it is; any
    other sequence of records is first put into one."""
    table = corpus if isinstance(corpus, SceneTable) else SceneTable.from_records(corpus)
    hits = _mask(rule, table, False, {})
    return [table.scene_ids[i] for i in np.flatnonzero(hits)]
