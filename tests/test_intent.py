"""Rule language: parser, printer, evaluator, and scene retrieval."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxforge.errors import RuleScopeError, RuleSyntaxError, ValidationError
from ctxforge.intent import (
    And,
    Exists,
    MAX_RULE_DEPTH,
    FalseRule,
    Not,
    Or,
    Pred,
    TrueRule,
    Within,
    evaluate,
    parse_rule,
    pretty_print,
    retrieve_by_rule,
)
from ctxforge.records import Instance, MetadataRecord, load_metadata


def scene(scene_id="s", instances=(), attrs=None):
    return MetadataRecord(
        scene_id=scene_id,
        instances=tuple(instances),
        scene_attributes=attrs or {},
        scores={},
    )


def inst(category="mug", bbox=(0.1, 0.1, 0.3, 0.3), **attrs):
    return Instance(category=category, attributes=attrs, bbox=bbox)


class TestParser:
    def test_literals(self):
        assert parse_rule("true") == TrueRule()
        assert parse_rule("false") == FalseRule()

    def test_precedence_not_over_and_over_or(self):
        rule = parse_rule('not a == "x" and b == "y" or c == "z"')
        assert rule == Or(
            (
                And((Not(Pred("a", "==", "x")), Pred("b", "==", "y"))),
                Pred("c", "==", "z"),
            )
        )

    def test_parens_override(self):
        rule = parse_rule('a == "x" and (b == "y" or c == "z")')
        assert isinstance(rule, And)
        assert isinstance(rule.children[1], Or)

    def test_numeric_and_comparison_ops(self):
        for op in ("==", "!=", "<", "<=", ">", ">="):
            rule = parse_rule(f"size {op} 3.5")
            assert rule == Pred("size", op, 3.5)

    def test_within(self):
        rule = parse_rule("exists(bbox within box(0.1, 0.2, 0.8, 0.9))")
        assert rule == Exists(Within((0.1, 0.2, 0.8, 0.9)))

    def test_syntax_error_reports_byte_offset(self):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rule("a == ")
        assert "byte" in str(exc.value)
        assert exc.value.offset == 5

    @pytest.mark.parametrize(
        "text, message",
        [
            ('a == "x" @', "byte 9: unexpected character '@'"),
            ('a == "é" @', "byte 10: unexpected character '@'"),  # é is two bytes
            ('a == "b\\q"', "byte 7: bad string escape \\q"),
            ('a == "é\\n"', "byte 8: bad string escape \\n"),
            ("exists x", "byte 7: unexpected 'x' (expected ()"),
            ("(true", "byte 5: unexpected end of input (expected ))"),
            ("exists(bbox within 3)", "byte 19: unexpected '3' (expected box)"),
            ("exists(bbox within", "byte 18: unexpected end of input (expected box)"),
            ("exists(bbox within box(0, 0, 1 1))", "byte 31: unexpected '1' (expected ,)"),
            (")", "byte 0: unexpected ')' (expected (, not, true, false, exists, identifier)"),
            ("", "byte 0: unexpected end of input (expected (, not, true, false, exists, identifier)"),
            ("a b", "byte 2: unexpected 'b' (expected ==, !=, <, <=, >, >=)"),
            ("a", "byte 1: unexpected end of input (expected ==, !=, <, <=, >, >=)"),
            ("a == and", "byte 5: unexpected 'and' (expected string literal, number)"),
        ],
        ids=["character", "character-after-multibyte", "escape", "escape-after-multibyte",
             "expect", "expect-eof", "expect-word", "expect-word-eof", "expect-comma",
             "primary", "primary-eof", "pred-op", "pred-op-eof", "pred-literal"],
    )
    def test_syntax_error_message_and_offset(self, text, message):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rule(text)
        assert str(exc.value) == message
        assert exc.value.offset == int(message.split(":")[0].removeprefix("byte "))

    def test_unterminated_string(self):
        with pytest.raises(RuleSyntaxError, match="unterminated"):
            parse_rule('a == "oops')

    def test_reserved_words_cannot_be_fields(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule('and == "x"')

    def test_trailing_garbage(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("true false")

    def test_within_outside_exists_is_scope_error(self):
        with pytest.raises(RuleScopeError, match="exists"):
            parse_rule("bbox within box(0, 0, 1, 1)")

    def test_nested_exists_is_scope_error(self):
        with pytest.raises(RuleScopeError, match="nested"):
            parse_rule('exists(exists(category == "mug"))')

    def test_box_bounds_validated(self):
        with pytest.raises(ValidationError):
            parse_rule("exists(bbox within box(0.9, 0.0, 0.1, 1.0))")


class TestPrinter:
    CASES = [
        "true",
        'category == "mug"',
        'not category == "mug"',
        '(a == "x" or b == "y") and c == "z"',
        'exists(category == "mug" and color == "red")',
        "exists(bbox within box(0.1, 0.2, 0.3, 0.4))",
        'size >= 2.0 and size < 10.0 or not exists(category == "cat")',
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_fixpoint(self, text):
        rule = parse_rule(text)
        printed = pretty_print(rule)
        assert parse_rule(printed) == rule
        assert pretty_print(parse_rule(printed)) == printed

    def test_string_escaping(self):
        rule = Pred("name", "==", 'quo"te\\slash')
        printed = pretty_print(rule)
        assert parse_rule(printed) == rule

    def test_degenerate_connectives_unprintable(self):
        with pytest.raises(ValidationError):
            pretty_print(And((TrueRule(),)))


def random_rule(rng, depth=0, in_exists=False):
    """Random well-scoped AST; Within only under Exists, no nested Exists."""
    fields = ["category", "color", "size", "room", "count"]
    strings = ["mug", "red", "kitchen", 'we"ird', "a\\b"]

    def pred():
        field = fields[rng.integers(len(fields))]
        if rng.random() < 0.5:
            op = ["==", "!="][rng.integers(2)]
            lit = strings[rng.integers(len(strings))]
        else:
            op = ["==", "!=", "<", "<=", ">", ">="][rng.integers(6)]
            lit = float(np.round(rng.uniform(-5, 5), 3))
        return Pred(field, op, lit)

    choices = ["pred", "true", "false", "not", "and", "or"]
    if depth < 3:
        if not in_exists:
            choices.append("exists")
        else:
            choices.append("within")
    pick = choices[rng.integers(len(choices))] if depth < 3 else "pred"
    if pick == "pred":
        return pred()
    if pick == "true":
        return TrueRule()
    if pick == "false":
        return FalseRule()
    if pick == "not":
        return Not(random_rule(rng, depth + 1, in_exists))
    if pick in ("and", "or"):
        n = int(rng.integers(2, 4))
        kids = tuple(random_rule(rng, depth + 1, in_exists) for _ in range(n))
        return And(kids) if pick == "and" else Or(kids)
    if pick == "exists":
        return Exists(random_rule(rng, depth + 1, True))
    lo_x, lo_y = rng.uniform(0, 0.5, size=2)
    hi_x, hi_y = rng.uniform(0.5, 1.0, size=2)
    return Within((float(lo_x), float(lo_y), float(hi_x), float(hi_y)))


def _nested_rules(depth):
    """One rule per construct whose parentheses, nots and exists nest ``depth``
    deep, with the byte offset of the token that opens the deepest level."""
    inner = 'color == "red"'
    return [
        ("(" * depth + inner + ")" * depth, depth - 1),
        ("not " * depth + inner, 4 * (depth - 1)),
        ("not " * (depth - 1) + f"exists({inner})", 4 * (depth - 1)),
    ]


class TestNestingBound:
    @pytest.mark.parametrize("index", range(3), ids=["paren", "not", "exists"])
    def test_at_the_bound(self, index):
        text, _ = _nested_rules(MAX_RULE_DEPTH)[index]
        rule = parse_rule(text)
        assert parse_rule(pretty_print(rule)) == rule
        meta = scene(instances=[inst(color="red")])
        assert evaluate(rule, meta) == naive_eval(rule, meta)

    @pytest.mark.parametrize("index", range(3), ids=["paren", "not", "exists"])
    def test_past_the_bound(self, index):
        text, offset = _nested_rules(MAX_RULE_DEPTH + 1)[index]
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rule(text)
        assert exc.value.offset == offset
        assert f"nested deeper than {MAX_RULE_DEPTH} levels" in str(exc.value)

    def test_far_past_the_bound(self):
        # deep enough to exhaust the interpreter's stack without the bound
        for text, offset in _nested_rules(MAX_RULE_DEPTH + 1)[:2]:
            with pytest.raises(RuleSyntaxError):
                parse_rule(text.replace(text[:offset], text[:offset] * 20, 1))


def test_random_ast_print_parse_fixpoint():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        rule = random_rule(rng)
        printed = pretty_print(rule)
        reparsed = parse_rule(printed)
        assert reparsed == rule, printed


def naive_eval(rule, meta, instance=None):
    """Independent reference evaluator, written against the semantics alone."""
    if isinstance(rule, TrueRule):
        return True
    if isinstance(rule, FalseRule):
        return False
    if isinstance(rule, Not):
        return not naive_eval(rule.child, meta, instance)
    if isinstance(rule, And):
        return all(naive_eval(c, meta, instance) for c in rule.children)
    if isinstance(rule, Or):
        return any(naive_eval(c, meta, instance) for c in rule.children)
    if isinstance(rule, Exists):
        return any(naive_eval(rule.body, meta, i) for i in meta.instances)
    if isinstance(rule, Within):
        if instance is None:
            return False
        cx = (instance.bbox[0] + instance.bbox[2]) / 2.0
        cy = (instance.bbox[1] + instance.bbox[3]) / 2.0
        x0, y0, x1, y1 = rule.box
        return x0 <= cx <= x1 and y0 <= cy <= y1
    # predicate
    if instance is not None:
        value = instance.category if rule.field == "category" else instance.attributes.get(rule.field)
    else:
        value = meta.scene_attributes.get(rule.field)
    if value is None:
        return rule.op == "!="
    lit = rule.literal
    if isinstance(lit, float) or rule.op in ("<", "<=", ">", ">="):
        # numeric semantics, also for an ordering against a string literal
        try:
            value, lit = float(value), float(lit)
        except (TypeError, ValueError, OverflowError):
            return False
    if rule.op == "==":
        return value == lit
    if rule.op == "!=":
        return value != lit
    if rule.op == "<":
        return value < lit
    if rule.op == "<=":
        return value <= lit
    if rule.op == ">":
        return value > lit
    return value >= lit


def random_scene(rng, scene_id):
    cats = ["mug", "bowl", "cat", "plant"]
    insts = []
    for _ in range(int(rng.integers(0, 4))):
        x0, y0 = rng.uniform(0, 0.6, size=2)
        x1 = float(min(1.0, x0 + rng.uniform(0.05, 0.4)))
        y1 = float(min(1.0, y0 + rng.uniform(0.05, 0.4)))
        attrs = {}
        if rng.random() < 0.7:
            attrs["color"] = ["red", "blue", "green"][rng.integers(3)]
        if rng.random() < 0.5:
            attrs["size"] = float(np.round(rng.uniform(-5, 5), 2))
        if rng.random() < 0.2:
            attrs["size"] = "not-a-number"
        insts.append(Instance(category=cats[rng.integers(4)], attributes=attrs, bbox=(float(x0), float(y0), x1, y1)))
    attrs = {}
    if rng.random() < 0.7:
        attrs["room"] = ["kitchen", "office"][rng.integers(2)]
    if rng.random() < 0.5:
        attrs["count"] = float(rng.integers(0, 9))
    return scene(scene_id, insts, attrs)


def test_evaluator_matches_independent_oracle():
    rng = np.random.default_rng(7)
    scenes = [random_scene(rng, f"s{i}") for i in range(30)]
    for _ in range(400):
        rule = random_rule(rng)
        for meta in scenes:
            assert evaluate(rule, meta) == naive_eval(rule, meta)


def test_evaluation_is_total_over_fuzzed_scenes():
    rng = np.random.default_rng(3)
    for trial in range(300):
        rule = random_rule(rng)
        meta = random_scene(rng, f"f{trial}")
        result = evaluate(rule, meta)
        assert result in (True, False)


class TestSemanticsCorners:
    def test_missing_field_truthiness(self):
        meta = scene(instances=[inst(category="mug")])
        assert evaluate(parse_rule('room == "kitchen"'), meta) is False
        assert evaluate(parse_rule('room != "kitchen"'), meta) is True

    def test_numeric_coercion_failure_is_false(self):
        meta = scene(attrs={"count": "many"})
        assert evaluate(parse_rule("count > 3.0"), meta) is False
        assert evaluate(parse_rule("count < 3.0"), meta) is False

    def test_numeric_equality_coerces(self):
        meta = scene(attrs={"count": 3})
        assert evaluate(parse_rule("count == 3.0"), meta) is True

    def test_exists_over_empty_scene(self):
        assert evaluate(parse_rule('exists(category == "mug")'), scene()) is False

    def test_within_uses_center(self):
        meta = scene(instances=[inst(bbox=(0.0, 0.0, 0.4, 0.4))])  # center (0.2, 0.2)
        assert evaluate(parse_rule("exists(bbox within box(0.1, 0.1, 0.3, 0.3))"), meta) is True
        assert evaluate(parse_rule("exists(bbox within box(0.25, 0.25, 1.0, 1.0))"), meta) is False

    def test_scene_scope_vs_instance_scope(self):
        meta = scene(
            instances=[inst(category="mug", color="red")],
            attrs={"room": "kitchen"},
        )
        assert evaluate(parse_rule('room == "kitchen"'), meta) is True
        # outside exists, instance fields are not in scope
        assert evaluate(parse_rule('category == "mug"'), meta) is False
        assert evaluate(parse_rule('exists(category == "mug" and color == "red")'), meta) is True


def test_retrieve_by_rule_preserves_corpus_order():
    corpus = [
        scene("s1", [inst(category="mug")]),
        scene("s2", [inst(category="bowl")]),
        scene("s3", [inst(category="mug")]),
    ]
    assert retrieve_by_rule(parse_rule('exists(category == "mug")'), corpus) == ["s1", "s3"]


class TestHandBuiltAsts:
    """ASTs the parser rejects still evaluate (``evaluate`` takes any AST)."""

    def test_within_outside_exists_is_false(self):
        meta = scene(instances=[inst(bbox=(0.0, 0.0, 1.0, 1.0))])
        everywhere = Within((0.0, 0.0, 1.0, 1.0))
        assert evaluate(everywhere, meta) is False
        assert evaluate(Not(everywhere), meta) is True
        assert evaluate(Or((Pred("room", "==", "kitchen"), everywhere)), meta) is False

    def test_nested_exists_ranges_over_the_scene(self):
        rule = Exists(And((Pred("category", "==", "mug"), Exists(Pred("category", "==", "bowl")))))
        both = scene("both", [inst(category="mug"), inst(category="bowl")])
        mug_only = scene("mug", [inst(category="mug")])
        bowl_only = scene("bowl", [inst(category="bowl")])
        assert evaluate(rule, both) is True
        assert evaluate(rule, mug_only) is False
        assert evaluate(rule, bowl_only) is False
        # the inner result is the bound instance's own scene's, never a neighbour's
        corpus = [mug_only, bowl_only, both, scene("empty")]
        assert retrieve_by_rule(rule, corpus) == ["both"]
        assert retrieve_by_rule(Exists(Not(Exists(Pred("category", "==", "bowl")))), corpus) == ["mug"]

    def test_within_under_nested_exists(self):
        centred = inst(bbox=(0.4, 0.4, 0.6, 0.6))
        corner = inst(bbox=(0.0, 0.0, 0.1, 0.1))
        rule = Exists(Exists(Within((0.3, 0.3, 0.7, 0.7))))
        assert evaluate(rule, scene(instances=[corner, centred])) is True
        assert evaluate(rule, scene(instances=[corner])) is False


class TestTotality:
    def test_coercion_type_error_is_false(self):
        meta = MetadataRecord("s", scene_attributes={"count": [1]})
        assert evaluate(parse_rule("count > 1.0"), meta) is False
        assert evaluate(parse_rule('count < "5"'), meta) is False
        assert evaluate(parse_rule("count != 1.0"), meta) is False
        assert evaluate(parse_rule('count != "5"'), meta) is True

    def test_coercion_overflow_is_false(self):
        meta = scene(attrs={"count": 10**400})
        assert evaluate(parse_rule("count > 1.0"), meta) is False
        assert evaluate(parse_rule('count >= "1"'), meta) is False

    def test_unhashable_values_among_hashable_ones(self):
        corpus = [
            scene("a", [inst(size="2")], attrs={"count": "3"}),
            scene("b", [inst(size={"n": 2})], attrs={"count": [3]}),
            scene("c", [inst(size="7")], attrs={"count": "3"}),
        ]
        assert retrieve_by_rule(parse_rule("count == 3.0"), corpus) == ["a", "c"]
        assert retrieve_by_rule(parse_rule('exists(size < "5")'), corpus) == ["a"]
        assert retrieve_by_rule(parse_rule('exists(size != "2")'), corpus) == ["b", "c"]

    def test_codes_keep_types_apart(self):
        from ctxforge.intent import _factorize

        codes, values = _factorize([1, 1.0, True, None, "1", 1, None])
        assert codes.tolist() == [0, 1, 2, 3, 4, 0, 3]
        assert [type(v) for v in values] == [int, float, bool, type(None), str]


# --- differential property test: the columnar evaluator against naive_eval ---

FIELDS = ["category", "color", "size", "count"]
STRING_VALUES = ["mug", "red", "nan", "1_0", "-0", "10", "9", "2.5", "", " 3 ", "inf"]
VALUES = st.sampled_from(STRING_VALUES) | st.floats(allow_nan=True) | st.integers(-3, 12)
LITERALS = st.sampled_from(STRING_VALUES) | st.floats(allow_nan=False, allow_infinity=False)


def attrs_strategy():
    return st.dictionaries(st.sampled_from(FIELDS[1:]), VALUES, max_size=3)


# bboxes and within-boxes share corners, so centres land on box edges too
BOXES = st.sampled_from([
    (0.0, 0.0, 1.0, 1.0),
    (0.0, 0.0, 0.5, 0.4),
    (0.25, 0.2, 0.75, 0.6),
    (0.5, 0.4, 1.0, 1.0),
    (0.1, 0.1, 0.1, 0.1),
    (0.0, 0.6, 0.25, 1.0),
])


@st.composite
def corpora(draw):
    instance = st.builds(
        Instance,
        category=st.sampled_from(["mug", "bowl", "9", "nan"]),
        attributes=attrs_strategy(),
        bbox=BOXES,
    )
    n = draw(st.integers(0, 6))
    return [
        MetadataRecord(
            scene_id=f"s{i}",
            instances=tuple(draw(st.lists(instance, max_size=3))),
            scene_attributes=draw(attrs_strategy()),
        )
        for i in range(n)
    ]


PREDS = st.builds(Pred, field=st.sampled_from(FIELDS), op=st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                  literal=LITERALS)
RULES = st.recursive(
    PREDS | st.just(TrueRule()) | st.just(FalseRule()) | BOXES.map(Within),
    lambda kids: (
        kids.map(Not)
        | kids.map(Exists)
        | st.lists(kids, max_size=3).map(lambda cs: And(tuple(cs)))
        | st.lists(kids, max_size=3).map(lambda cs: Or(tuple(cs)))
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(RULES, corpora())
def test_retrieve_by_rule_matches_naive_eval(rule, corpus):
    assert retrieve_by_rule(rule, corpus) == [m.scene_id for m in corpus if naive_eval(rule, m)]


# --- the same property over a loaded file, whose lines take either load path ---

# from_json converts ints, bools and numeric strings in a bbox or a score,
# which the exact path leaves to it; each line holds such a value or not
COORDS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 0, 1, True, "0.5", "1e-1", -0.0])
SCORES = st.floats(-1e6, 1e6) | st.sampled_from([3, True, "0.5", 2**64 + 1, 10**25])


@st.composite
def scene_lines(draw, scene_id):
    """One valid metadata object, exact or one that from_json converts."""
    def attrs():
        return st.dictionaries(st.sampled_from(FIELDS[1:]), st.sampled_from(STRING_VALUES),
                               max_size=3)
    instances = []
    for _ in range(draw(st.integers(0, 3))):
        xs = sorted(draw(st.lists(COORDS, min_size=2, max_size=2)), key=float)
        ys = sorted(draw(st.lists(COORDS, min_size=2, max_size=2)), key=float)
        inst = {"category": draw(st.sampled_from(["mug", "bowl", "9", "nan"])),
                "bbox": [xs[0], ys[0], xs[1], ys[1]]}
        if draw(st.booleans()):
            inst["attributes"] = draw(attrs())
        instances.append(inst)
    obj = {"scene_id": scene_id, "instances": instances}
    if draw(st.booleans()):
        obj["scene_attributes"] = draw(attrs())
    if draw(st.booleans()):
        obj["scores"] = draw(st.dictionaries(st.sampled_from(["q", "rel"]), SCORES, max_size=2))
    return obj


@settings(max_examples=150, deadline=None)
@given(RULES, st.integers(0, 6).flatmap(
    lambda n: st.tuples(*(scene_lines(f"s{i}") for i in range(n)))))
def test_retrieve_by_rule_over_a_loaded_file_matches_naive_eval(tmp_path_factory, rule, objs):
    path = tmp_path_factory.mktemp("scenes") / "m.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
    records = [MetadataRecord.from_json(o) for o in objs]
    expected = [m.scene_id for m in records if naive_eval(rule, m)]
    assert retrieve_by_rule(rule, load_metadata(str(path))) == expected
