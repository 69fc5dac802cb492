from __future__ import annotations

import random
import re
import string
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings, strategies as st

from actrsim.chunks import ChunkType
from actrsim.engine import compile_model
from actrsim.errors import ModelSyntaxError
from actrsim.experiment import builtin_model_text
from actrsim.model import (
    Annotation,
    BufferTest,
    ChunkSpec,
    ModelAST,
    Production,
    _position,
    _tokenize,
    format_model,
    parse_model,
    validate_model,
)

from oracle import char_tokenize, reference_parse, reference_validate

WIN_RULE = """
(p recognize-win
   =goal> isa game me rock opponent scissors
 ==>
   =goal> result win)
"""


def test_parse_simple_rule():
    ast = parse_model("(chunk-type game me opponent result)" + WIN_RULE)
    (rule,) = ast.productions
    assert rule.name == "recognize-win"
    assert rule.tests == (
        BufferTest("goal", "game", (("me", "rock"), ("opponent", "scissors"))),
    )
    assert rule.binds == rule.clearings == ()
    assert rule.modifications == (("goal", (("result", "win"),)),)


def test_parse_is_whitespace_and_comment_insensitive():
    condensed = "(p r =goal> isa game me rock ==> =goal> result win)"
    spread = """
    ; a rule
    (p r ; same rule
       =goal>   isa game
          me rock   ; tested value
     ==>
       =goal> result win)
    """
    assert parse_model(condensed).productions == parse_model(spread).productions


def test_parse_binds_in_text_order():
    ast = parse_model(
        "(p play =goal> isa game me nil ==> !bind! =x next-move =goal> me =x)"
    )
    (rule,) = ast.productions
    assert rule.binds == (("=x", "next-move"),)
    assert rule.modifications == (("goal", (("me", "=x"),)),)
    # =b is read first, but =a is bound first
    ast = parse_model("(p r =goal> isa t ==> !bind! =a p !bind! =b p =goal> s1 =b s2 =a)")
    assert ast.productions[0].binds == (("=a", "p"), ("=b", "p"))


def test_parse_clearing_action():
    ast = parse_model("(p done =goal> isa game ==> -goal>)")
    (rule,) = ast.productions
    assert rule.clearings == ("goal",)
    assert rule.binds == rule.modifications == ()


def test_output_directive_is_ignored():
    with_output = parse_model(
        "(p play =goal> isa game me =x ==> !output! (rock =x) =goal> me nil)"
    )
    without = parse_model("(p play =goal> isa game me =x ==> =goal> me nil)")
    assert with_output.productions == without.productions


def test_request_action_rejected():
    with pytest.raises(ModelSyntaxError, match="unsupported"):
        parse_model("(p ask =goal> isa game ==> +retrieval> isa game)")


# declarations every rule below can test and modify
DECLARED = "(chunk-type game me)(add-dm (g1 isa game me rock))(goal-focus goal g1)"


def rejected(text, diagnostic):
    """text parses, validate_model reports exactly diagnostic, and compile_model
    raises it."""
    ast = parse_model(DECLARED + text)
    assert validate_model(ast) == [diagnostic]
    with pytest.raises(ModelSyntaxError, match=re.escape(diagnostic)):
        compile_model(ast)


def test_unbound_rhs_variable_rejected():
    rejected("(p play =goal> isa game me nil ==> =goal> me =x)",
             "rule 'play' updates slot 'me' with unbound variable '=x'")


def test_unused_bind_rejected():
    rejected("(p play =goal> isa game ==> !bind! =x feed =goal> me rock)",
             "rule 'play' binds '=x', which no modification reads")


def test_rebinding_lhs_variable_rejected():
    rejected("(p play =goal> isa game me =x ==> !bind! =x feed =goal> me =x)",
             "rule 'play' binds '=x', which is already bound")


def test_duplicate_buffer_test_rejected():
    rejected("(p two =goal> isa game =goal> isa game ==> -goal>)",
             "rule 'two' tests buffer 'goal' twice")


def test_duplicate_rule_name_rejected():
    rule = "(p same =goal> isa game ==> -goal>)"
    rejected(rule + rule, "rule 'same' declared twice")


def test_annotation_parsing():
    text = WIN_RULE + "(spp recognize-win :reward 2)(spp recognize-win :success t)"
    ast = parse_model(text)
    ann = ast.annotations["recognize-win"]
    assert ann.reward == Fraction(2)
    assert ann.success and not ann.failure


def test_annotation_unknown_target():
    rejected("(spp missing :reward 2)", "annotation targets unknown rule 'missing'")


def test_annotation_may_precede_its_rule():
    text = "(spp recognize-win :success t)(chunk-type game me opponent result)" + WIN_RULE
    assert parse_model(text).annotations == {"recognize-win": Annotation(success=True)}


def test_zero_denominator_reward_is_a_syntax_error():
    text = WIN_RULE + "(spp recognize-win\n  :reward 1/0)"
    with pytest.raises(ModelSyntaxError, match="not a number") as excinfo:
        parse_model(text)
    assert (excinfo.value.line, excinfo.value.column) == (7, 11)


def test_duplicate_reward_annotation_rejected():
    text = WIN_RULE + "(spp recognize-win :reward 2)(spp recognize-win :reward 1)"
    with pytest.raises(ModelSyntaxError, match="two reward"):
        parse_model(text)


def test_syntax_errors_report_positions():
    with pytest.raises(ModelSyntaxError) as excinfo:
        parse_model("(chunk-type game me\n  (nested))")
    assert excinfo.value.line == 2
    with pytest.raises(ModelSyntaxError, match="unclosed"):
        parse_model("(p lonely")
    with pytest.raises(ModelSyntaxError, match="unbalanced"):
        parse_model(")")


@pytest.mark.parametrize("text, diagnostic", [
    ("(p play =goal> isa game ==> !bind! x feed =goal> me x)",
     "rule 'play' binds 'x', which is not a variable"),
    ("(goal-focus = g1)", "buffer '=' would print as the rule arrow"),
], ids=["bind-of-a-constant", "buffer-that-prints-as-the-arrow"])
def test_reader_reads_what_validation_rejects(text, diagnostic):
    rejected(text, diagnostic)


def test_chunk_naming_a_slot_twice_is_rejected_at_the_second():
    rejected("(add-dm (g2 isa game me nil me rock))", "chunk 'g2' names slot 'me' twice")


@pytest.mark.parametrize("text, where, line, column", [
    ("(p r =goal> isa g me =retrieval> isa g ==> -goal>)", "test on 'goal'", 1, 19),
    ("(p r =goal> isa g ==>\n =goal> me !output! (me))", "update of 'goal'", 2, 9),
    ("(p r =goal> isa g ==> =goal> me -goal>)", "update of 'goal'", 1, 30),
    ("(add-dm (g1 isa game me !bind!))", "chunk 'g1'", 1, 22),
    ("(add-dm (g1 isa game me =goal>))", "chunk 'g1'", 1, 22),
], ids=["test", "update-then-output", "update-then-clear", "chunk-then-bind", "chunk-then-test"])
def test_a_slot_list_ending_where_a_value_stands_is_a_missing_value(text, where, line, column):
    with pytest.raises(ModelSyntaxError, match=f"{where}: slot 'me' has no value") as excinfo:
        parse_model(text)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


@pytest.mark.parametrize("text, line, column", [
    ("(chunk-type game)\n  ()", 2, 3),
    ("\n((a))", 2, 1),
    ("(p x =goal> isa g ==>\n   (foo))", 2, 4),
    ("(p play =goal> isa game ==>\n !bind! =x)", 2, 2),
    ("(add-dm (g1 isa game\n  =goal> x))", 2, 3),
    ("(add-dm (g1 isa game me rock)\n  g2)", 2, 3),  # an atom after a nested list
])
def test_every_syntax_error_has_a_position(text, line, column):
    with pytest.raises(ModelSyntaxError) as excinfo:
        parse_model(text)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


def test_unknown_form_rejected():
    with pytest.raises(ModelSyntaxError, match="unknown form"):
        parse_model("(sgp :esc t)")


@pytest.mark.parametrize("text", [
    "(p b =goal> isa ==> -goal>)",
    "(p b =goal> ==> -goal>)",
    "(p b =goal> isa game me ==> -goal>)",
    "(p b isa game ==> -goal>)",
    "(p b =goal> isa game ==> =goal> me)",
    "(p b =goal> isa game ==> !bind! =x)",
    "(add-dm (c isa t s))",
    "(goal-focus g)",
])
def test_truncated_forms_report_syntax_errors(text):
    with pytest.raises(ModelSyntaxError):
        parse_model(text)


def test_round_trip_through_pretty_printer(rps_model):
    assert parse_model(format_model(rps_model)) == rps_model


@given(st.lists(st.fractions(), min_size=1, max_size=3))
def test_round_trip_of_rational_rewards(rewards):
    rules = "".join(
        f"(p r{i} =goal> isa game me rock ==> -goal>)(spp r{i} :reward {reward})"
        for i, reward in enumerate(rewards)
    )
    ast = parse_model("(chunk-type game me)" + rules)
    assert [ast.annotations[f"r{i}"].reward for i in range(len(rewards))] == rewards
    assert parse_model(format_model(ast)) == ast


# [a-z][a-z0-9-]{0,4}, drawn faster than st.from_regex draws it
SYMBOLS = st.tuples(st.sampled_from(string.ascii_lowercase),
                    st.text(string.ascii_lowercase + string.digits + "-", max_size=4),
                    ).map("".join)
VALUES = st.sampled_from(["x", "y", "nil"]) | SYMBOLS  # a few values recur
TEST_VARIABLES = st.sampled_from(["=x", "=y", "=z"])
BIND_VARIABLES = ["=p", "=q", "=r"]  # never tested, so free for !bind!


def pick(draw, names, sloppy):
    """One of names; in a sloppy model, or with no names, at times any symbol."""
    if names and not (sloppy and draw(st.booleans())):
        return draw(st.sampled_from(names))
    return draw(SYMBOLS)  # most likely a name the model does not declare


@st.composite
def slot_pairs(draw, slots, values, sloppy, min_size=0, max_size=3):
    """Distinct slots of `slots` (or any, when sloppy), each with a drawn value."""
    pairs: dict = {}
    for _ in range(draw(st.integers(min_size, max_size)) if slots or sloppy else 0):
        pairs.setdefault(pick(draw, slots, sloppy), draw(values))
    return tuple(pairs.items())


@st.composite
def productions(draw, name, types, buffers, sloppy):
    """A rule over the declared types (name -> slots) and buffers (-> type).

    Tests mostly name a buffer with its own type, and actions mostly a
    tested buffer. Only a sloppy model names undeclared things.
    """
    tests = []
    for _ in range(draw(st.integers(0, 2))):
        buffer = pick(draw, sorted(buffers), sloppy)
        if any(test.buffer == buffer for test in tests):
            continue  # the parser rejects a second test of a buffer
        own = [buffers[buffer]] * 3 if buffers.get(buffer) else []
        ctype = pick(draw, own + sorted(types), sloppy)
        slot_tests = draw(slot_pairs(types.get(ctype, ()), VALUES | TEST_VARIABLES, sloppy))
        tests.append(BufferTest(buffer, ctype, slot_tests))
    tested = [test.buffer for test in tests]
    bound = {v for test in tests for _, v in test.slot_tests if v.startswith("=")}
    binds, modifications, clearings = [], [], []
    # 0-3 variables no test binds, the first values the updates read: each is
    # then bound by a !bind!, so rules with two or three binds are drawn often
    fresh = BIND_VARIABLES[draw(st.integers(0, 3)):]
    for _ in range(draw(st.integers(0, 3))):
        buffer = pick(draw, tested * 3 + sorted(buffers), sloppy)
        if draw(st.integers(0, 3)) == 0:
            clearings.append(buffer)
            continue
        usable = st.sampled_from(sorted(bound) + BIND_VARIABLES)
        slots = types.get(buffers.get(buffer), ())
        updates = draw(slot_pairs(slots, VALUES | usable, sloppy, min_size=1))
        updates = tuple((slot, fresh.pop(0) if fresh else value) for slot, value in updates)
        for _, value in updates:  # a !bind! for each variable no test binds
            if value.startswith("=") and value not in bound:
                bound.add(value)
                binds.append((value, draw(SYMBOLS)))
        modifications.append((buffer, updates))
    return Production(name, tuple(tests), tuple(binds), tuple(modifications),
                      tuple(clearings))


@st.composite
def model_asts(draw):
    """Models over their own declarations; one in four is sloppy."""
    sloppy = draw(st.integers(0, 3)) == 3
    names = st.lists(SYMBOLS, min_size=1, max_size=2, unique=True)
    types = {name: tuple(draw(st.lists(SYMBOLS, max_size=3, unique=True)))
             for name in draw(names)}
    chunks = []
    for name in draw(names):
        ctype = pick(draw, sorted(types), sloppy)
        slot_values = draw(slot_pairs(types.get(ctype, ()), VALUES, sloppy))
        chunks.append(ChunkSpec(name, ctype, slot_values))
    buffer_inits = tuple(
        (buffer, pick(draw, [chunk.name for chunk in chunks], sloppy))
        for buffer in draw(names)
    )
    chunk_type = {chunk.name: chunk.type for chunk in chunks}
    buffers = {buffer: chunk_type.get(chunk) for buffer, chunk in buffer_inits}
    rules = draw(st.lists(SYMBOLS, max_size=4, unique=True))
    annotated = draw(st.lists(st.sampled_from(rules), unique=True)) if rules else []
    annotations = {}
    for rule in annotated:
        annotation = Annotation(draw(st.none() | st.fractions()),
                                draw(st.booleans()), draw(st.booleans()))
        if annotation != Annotation():  # an empty annotation has no text
            annotations[rule] = annotation
    return ModelAST(
        chunk_types=tuple(ChunkType(name, slots) for name, slots in types.items()),
        initial_chunks=tuple(chunks),
        buffer_inits=buffer_inits,
        productions=tuple(draw(productions(name, types, buffers, sloppy))
                          for name in rules),
        annotations=annotations,
    )


def test_model_asts_mostly_validate_and_cover_real_rules():
    drawn = []

    @settings(max_examples=100, derandomize=True, database=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(model_asts())
    def record(ast):
        drawn.append(ast)

    record()
    valid = [ast for ast in drawn if not validate_model(ast)]
    assert len(drawn) == 100
    assert 3 * len(valid) >= len(drawn)
    assert len(valid) < len(drawn)  # the invalid branch is drawn too
    # rules that test a buffer and act, in models the engine accepts
    real = [p for ast in valid for p in ast.productions
            if p.tests and (p.modifications or p.clearings)]
    assert len(real) >= 10


@given(model_asts())
def test_round_trip_of_any_model_ast(ast):
    assert parse_model(format_model(ast)) == ast


def test_round_trip_of_builtin_text(rps_model):
    assert parse_model(builtin_model_text()) == rps_model


def test_validate_builtin_model_is_clean(rps_model):
    assert validate_model(rps_model) == []


def test_validate_flags_unknown_slot():
    ast = parse_model(
        "(chunk-type game me)(add-dm (g1 isa game))(goal-focus goal g1)"
        "(p r =goal> isa game score low ==> -goal>)"
    )
    diagnostics = validate_model(ast)
    assert len(diagnostics) == 1
    assert "score" in diagnostics[0]


def test_validate_flags_injected_bad_annotation(rps_model):
    bad = rps_model._replace(annotations={**rps_model.annotations, "missing": None})
    diagnostics = validate_model(bad)
    assert any("missing" in d for d in diagnostics)


def test_validate_flags_undeclared_buffer():
    ast = parse_model(
        "(chunk-type game me)(add-dm (g1 isa game))(goal-focus goal g1)"
        "(p r =visual> isa game ==> -visual>)"
    )
    diagnostics = validate_model(ast)
    assert any("undeclared buffer 'visual'" in d for d in diagnostics)


def test_a_bind_after_its_reader_parses_to_the_same_ast():
    # every !bind! is drawn before any action, wherever it stands
    after = parse_model(DECLARED + "(p r =goal> isa game ==> =goal> me =x !bind! =x p)")
    before = parse_model(DECLARED + "(p r =goal> isa game ==> !bind! =x p =goal> me =x)")
    assert after == before
    assert validate_model(after) == []


def test_validate_flags_unknown_type_and_chunk():
    ast = parse_model(
        "(chunk-type game me)(add-dm (g1 isa deal))(goal-focus goal g2)"
    )
    diagnostics = validate_model(ast)
    assert any("unknown type" in d for d in diagnostics)
    assert any("unknown chunk" in d for d in diagnostics)


def test_validate_checks_updates_on_untested_buffers():
    # goal-focus fixes each buffer's type, so counter always holds a count
    ast = parse_model(
        "(chunk-type game me)(chunk-type count n)"
        "(add-dm (g1 isa game me rock) (c1 isa count n one))"
        "(goal-focus goal g1)(goal-focus counter c1)"
        "(p tally =goal> isa game me rock ==> =counter> bogus two)"
    )
    assert validate_model(ast) == [
        "rule 'tally' updates unknown slot 'bogus' of type 'count' in buffer 'counter'"
    ]


CLEAR_THEN_MODIFY = (
    "(chunk-type game me)(chunk-type count n)"
    "(add-dm (g1 isa game me rock) (c1 isa count n one))"
    "(goal-focus goal g1)(goal-focus counter c1)"
    "(p drop =goal> isa game me rock ==> -counter> =goal> me paper)"
    "(p tally =goal> isa game me paper ==> =counter> n two)"
)


def test_validate_flags_modifying_a_cleared_buffer_without_testing_it():
    # drop empties counter; tally, not testing it, would then modify nothing
    assert validate_model(parse_model(CLEAR_THEN_MODIFY)) == [
        "rule 'tally' modifies buffer 'counter' without testing it, "
        "but a rule clears that buffer"
    ]


def test_validate_accepts_rules_that_test_what_they_modify_and_clear():
    # updates apply before clearings, and a tested buffer holds a chunk
    ast = parse_model(
        "(chunk-type game me)(chunk-type count n)"
        "(add-dm (g1 isa game me rock) (c1 isa count n one))"
        "(goal-focus goal g1)(goal-focus counter c1)"
        "(p tally =goal> isa game me rock =counter> isa count n one"
        " ==> =counter> n two -counter>)"
        "(p again =counter> isa count n two ==> =counter> n three)"
    )
    assert validate_model(ast) == []


def test_reversed_binds_validate_and_round_trip():
    ast = parse_model(
        "(chunk-type game me opponent)(add-dm (g1 isa game me rock))(goal-focus goal g1)"
        "(p r =goal> isa game me rock ==> !bind! =m next !bind! =n next"
        " =goal> me =m opponent =n)"
    )
    (rule,) = ast.productions
    reversed_binds = ast._replace(productions=(rule._replace(binds=rule.binds[::-1]),))
    assert validate_model(reversed_binds) == []
    assert parse_model(format_model(reversed_binds)) == reversed_binds


# -- each semantic rule on its own, and the round trip it keeps -------------------

SHAPE_BASE = parse_model(  # its rule binds twice, so every valid draw shows bind order
    "(chunk-type game me opponent result)(add-dm (g1 isa game me rock))(goal-focus goal g1)"
    "(p play =goal> isa game me =m ==> !bind! =p next !bind! =q next"
    " =goal> me =p opponent =m result =q)"
    "(spp play :reward 1)"
)


def edit_rule(ast, choose, fits, edit):
    """ast with one rule that fits, chosen, replaced by edit(rule)."""
    rules = list(ast.productions)
    at = choose([i for i, rule in enumerate(rules) if fits(rule)])
    rules[at] = edit(rules[at])
    return ast._replace(productions=tuple(rules))


def edit_chunk(ast, choose, edit):
    """ast with one chunk that holds a slot, chosen, replaced by edit(chunk)."""
    chunks = list(ast.initial_chunks)
    at = choose([i for i, chunk in enumerate(chunks) if chunk.slot_values])
    chunks[at] = edit(chunks[at])
    return ast._replace(initial_chunks=tuple(chunks))


def renamed_rule(ast, choose, name):
    """ast with one rule, chosen, renamed name(old), its annotation too."""
    rules = list(ast.productions)
    at = choose(range(len(rules)))
    old = rules[at].name
    rules[at] = rules[at]._replace(name=name(old))
    annotations = {name(rule) if rule == old else rule: annotation
                   for rule, annotation in ast.annotations.items()}
    return ast._replace(productions=tuple(rules), annotations=annotations)


def lhs_variables(rule):
    return {v for test in rule.tests for _, v in test.slot_tests if v.startswith("=")}


def lhs_reads(rule):
    """The values of rule's modifications that its tests bind."""
    return [v for _, updates in rule.modifications for _, v in updates
            if v in lhs_variables(rule)]


# shape -> (ast, choose) -> the shaped ast; choose picks one of the spots it is given
SHAPES = {
    "slot-twice-in-test": lambda ast, choose: edit_rule(
        ast, choose, lambda rule: any(test.slot_tests for test in rule.tests),
        lambda rule: rule._replace(tests=tuple(
            test._replace(slot_tests=test.slot_tests + test.slot_tests[:1])
            for test in rule.tests))),
    "slot-twice-in-update": lambda ast, choose: edit_rule(
        ast, choose, lambda rule: any(updates for _, updates in rule.modifications),
        lambda rule: rule._replace(modifications=tuple(
            (buffer, updates + updates[:1]) for buffer, updates in rule.modifications))),
    "slot-twice-in-chunk": lambda ast, choose: edit_chunk(
        ast, choose, lambda chunk: chunk._replace(
            slot_values=chunk.slot_values + chunk.slot_values[:1])),
    "buffer-tested-twice": lambda ast, choose: edit_rule(
        ast, choose, lambda rule: rule.tests,
        lambda rule: rule._replace(tests=rule.tests + rule.tests[:1])),
    "bind-its-action-does-not-read": lambda ast, choose: edit_rule(
        ast, choose, lambda rule: rule.modifications,
        lambda rule: rule._replace(binds=rule.binds + (("=unread", "next"),))),
    "bind-of-a-lhs-variable": lambda ast, choose: edit_rule(
        ast, choose, lhs_reads,
        lambda rule: rule._replace(binds=rule.binds + ((lhs_reads(rule)[0], "next"),))),
    "variable-bound-twice": lambda ast, choose: edit_rule(
        ast, choose, lambda rule: rule.binds,
        lambda rule: rule._replace(binds=rule.binds + ((rule.binds[0][0], "again"),))),
    "rule-name-with-a-space": lambda ast, choose: renamed_rule(
        ast, choose, lambda name: name + " now"),
    "value-ending-a-slot-list": lambda ast, choose: edit_chunk(
        ast, choose, lambda chunk: chunk._replace(
            slot_values=((chunk.slot_values[0][0], "=x>"),) + chunk.slot_values[1:])),
    "empty-name": lambda ast, choose: renamed_rule(ast, choose, lambda name: ""),
    "chunk-holding-a-variable": lambda ast, choose: edit_chunk(
        ast, choose, lambda chunk: chunk._replace(
            slot_values=((chunk.slot_values[0][0], "=v"),) + chunk.slot_values[1:])),
    "empty-annotation": lambda ast, choose: ast._replace(annotations={
        **ast.annotations, ast.productions[choose(range(len(ast.productions)))].name:
            Annotation()}),
}


SHAPE_DIAGNOSTICS = [  # each shape on SHAPE_BASE, and the one diagnostic it gets
    ("slot-twice-in-test", "rule 'play' test on 'goal' names slot 'me' twice"),
    ("slot-twice-in-update", "rule 'play' update of 'goal' names slot 'me' twice"),
    ("slot-twice-in-chunk", "chunk 'g1' names slot 'me' twice"),
    ("buffer-tested-twice", "rule 'play' tests buffer 'goal' twice"),
    ("bind-its-action-does-not-read",
     "rule 'play' binds '=unread', which no modification reads"),
    ("bind-of-a-lhs-variable", "rule 'play' binds '=m', which is already bound"),
    ("variable-bound-twice", "rule 'play' binds '=p', which is already bound"),
    ("rule-name-with-a-space", "'play now' is not a symbol"),
    ("value-ending-a-slot-list", "'=x>' is not a symbol"),
    ("empty-name", "'' is not a symbol"),
    ("chunk-holding-a-variable", "chunk 'g1' may not hold the variable '=v'"),
    ("empty-annotation", "annotation of rule 'play' is empty"),
]


@pytest.mark.parametrize("shape, diagnostic", SHAPE_DIAGNOSTICS,
                         ids=[shape for shape, _ in SHAPE_DIAGNOSTICS])
def test_each_shape_is_flagged_once(shape, diagnostic):
    assert validate_model(SHAPE_BASE) == []
    assert validate_model(SHAPES[shape](SHAPE_BASE, lambda spots: spots[0])) == [diagnostic]


@st.composite
def shaped_model_asts(draw):
    """A model_asts() draw with SHAPE_BASE's declarations, rule and annotation
    added, and one shape (or none) injected at a drawn spot."""
    ast = draw(model_asts())
    ast = ast._replace(
        chunk_types=ast.chunk_types + SHAPE_BASE.chunk_types,
        initial_chunks=ast.initial_chunks + SHAPE_BASE.initial_chunks,
        buffer_inits=ast.buffer_inits + SHAPE_BASE.buffer_inits,
        productions=ast.productions + SHAPE_BASE.productions,
        annotations={**ast.annotations, **SHAPE_BASE.annotations},
    )
    shape = draw(st.sampled_from([None, *SHAPES]))
    if shape is None:
        return ast
    return SHAPES[shape](ast, lambda spots: draw(st.sampled_from(spots)))


@settings(max_examples=400)  # about 30 draws of each shape
@given(shaped_model_asts())
def test_every_validated_ast_round_trips(ast):
    if validate_model(ast) == []:
        assert parse_model(format_model(ast)) == ast


# -- the reader and validation against their reference paths ----------------------

def chain_text(rules, seed):
    """A chain of `rules` rules on one goal buffer, each testing one state and
    moving to the next, declared in a shuffled order (the shape of the
    benchmark's chain-wide model)."""
    rng = random.Random(seed)
    states = [f"s{n:06x}" for n in rng.sample(range(16**6), rules + 1)]
    tags = [f"t{n:06x}" for n in rng.sample(range(16**6), rules + 1)]
    order = list(range(rules))
    rng.shuffle(order)
    return "".join(
        ["; a generated chain\n(chunk-type link state tag)\n",
         f"(add-dm (c0 isa link state {states[0]} tag {tags[0]}))\n(goal-focus goal c0)\n"]
        + [f"(p r{k}\n   =goal> isa link state {states[k]} tag =v\n ==>\n"
           f"   =goal> state {states[k + 1]} tag {tags[k + 1]})\n" for k in order])


def record_types(ast):
    """The type of ast and of every record in it: equal ASTs of other record
    types (a NamedTuple equals a plain tuple) would still differ here."""
    return ({type(ast)} | {type(t) for t in ast.chunk_types}
            | {type(p) for p in ast.productions} | {type(t) for p in ast.productions for t in p.tests}
            | {type(c) for c in ast.initial_chunks} | {type(a) for a in ast.annotations.values()})


@settings(max_examples=200)
@given(shaped_model_asts())
def test_validation_equals_the_reference_validation(ast):
    assert validate_model(ast) == reference_validate(ast)


# edits of one chain rule, each wrong in a way no shape makes it
CHAIN_EDITS = {
    "test-of-an-unknown-slot": lambda rule: rule._replace(tests=(rule.tests[0]._replace(
        slot_tests=rule.tests[0].slot_tests + (("bogus", "x"),)),)),
    "test-of-an-unknown-type": lambda rule: rule._replace(
        tests=(rule.tests[0]._replace(type="node"),)),
    "test-of-an-undeclared-buffer": lambda rule: rule._replace(
        tests=rule.tests + (BufferTest("visual", "link"),)),
    "update-of-an-unknown-slot": lambda rule: rule._replace(
        modifications=(("goal", rule.modifications[0][1] + (("bogus", "x"),)),)),
    "update-with-an-unbound-variable": lambda rule: rule._replace(
        modifications=(("goal", (("tag", "=w"),)),)),
    "clearing-of-an-undeclared-buffer": lambda rule: rule._replace(clearings=("visual",)),
}


CHAIN_RULES = st.sampled_from([1, 2, 400, 2000]) | st.integers(1, 2000)


@settings(max_examples=25, deadline=None)
@given(CHAIN_RULES, st.integers(0, 2**32), st.data())
def test_validation_of_chain_models_equals_the_reference_validation(rules, seed, data):
    ast = parse_model(chain_text(rules, seed))
    productions = list(ast.productions)
    for edit in data.draw(st.lists(st.sampled_from(sorted(CHAIN_EDITS)), max_size=3)):
        at = data.draw(st.integers(0, rules - 1))
        productions[at] = CHAIN_EDITS[edit](productions[at])
    ast = ast._replace(productions=tuple(productions))
    shape = data.draw(st.sampled_from([None, *SHAPES]))
    if shape is not None:
        def choose(spots):
            assume(spots)  # not every shape fits a chain
            return data.draw(st.sampled_from(spots))
        ast = SHAPES[shape](ast, choose)
    assert validate_model(ast) == reference_validate(ast)


@settings(max_examples=100, deadline=None)
@given(model_asts())
def test_reader_equals_the_reference_reader_on_printed_models(ast):
    assume(validate_model(ast) == [])
    text = format_model(ast)
    parsed = parse_model(text)
    assert parsed == reference_parse(text)
    assert {ModelAST} <= record_types(parsed) <= {
        ModelAST, ChunkType, Production, BufferTest, ChunkSpec, Annotation}


@settings(max_examples=10, deadline=None)
@given(CHAIN_RULES, st.integers(0, 2**32))
def test_reader_equals_the_reference_reader_on_chain_models(rules, seed):
    text = chain_text(rules, seed)
    ast = parse_model(text)
    assert ast == reference_parse(text)
    assert record_types(ast) == {ModelAST, ChunkType, Production, BufferTest, ChunkSpec}


# -- tokenizer against the character-by-character reader ----------------------------

# \f, \v and no-break space are not separators: they belong to atoms
TOKEN_TEXTS = st.text(alphabet="();\n\r\t\f\v\u00a0ab ", max_size=60)
MODEL_PIECES = st.lists(st.sampled_from([
    "(", ")", "p", "r", "isa", "game", "me", "rock", "=x", "=goal>", "==>",
    "-goal>", "!output!", "chunk-type", "add-dm", "goal-focus", "spp", ":reward", "2",
    "; note\n", " ", "\n", "\r", "\t", "\f", "\v", "\u00a0",
]), max_size=40).map("".join)
# forms of those pieces under a keyword, so that most errors are the reader's
MODEL_FORMS = st.lists(
    st.tuples(st.sampled_from(["p", "chunk-type", "add-dm", "goal-focus", "spp"]), MODEL_PIECES),
    min_size=1, max_size=3,
).map(lambda forms: "".join(f"({head} {body})" for head, body in forms))
# pieces after a nested list of the same list (an add-dm's chunk, or the list
# of an !output!), so that an atom error stands where a list's size counts
AFTER_A_LIST = st.tuples(
    st.sampled_from(["(add-dm (g1 isa game me rock)",
                     "(p r =goal> isa game ==> !output! (a (b))"]),
    MODEL_PIECES,
).map(lambda parts: f"{parts[0]} {parts[1]})")


def spelled(text):
    """Each token of text with the line and column an error at it reports."""
    return [(token, *_position(text, i)) for i, token in enumerate(_tokenize(text))]


def outcome(parse, text):
    """("ast", the AST) or ("error", type, message, line, column): tagged, as an
    AST is a tuple too."""
    try:
        return "ast", parse(text)
    except ModelSyntaxError as error:
        message = str(error).removeprefix(f"{error.line}:{error.column}: ")
        return "error", type(error), message, error.line, error.column


# the reference reader places these errors elsewhere: a nested list at its
# first token, a malformed chunk at the head of its add-dm, a form without a
# keyword nowhere
PLACED_ELSEWHERE = re.compile(r"found a nested list|chunk must read|form must start")


@given(TOKEN_TEXTS | MODEL_PIECES)
def test_tokenizer_equals_character_reader(text):
    assert spelled(text) == [(t.text, t.line, t.column) for t in char_tokenize(text)]


@given(MODEL_PIECES | MODEL_FORMS | AFTER_A_LIST)
def test_syntax_error_positions_equal_character_reader(text):
    """Where parse_model and the reference path (char_tokenize, reference_forms,
    reference_read) both read an AST it is the same; where both raise the same
    message, they raise it at the same line and column."""
    ast, reference = outcome(parse_model, text), outcome(reference_parse, text)
    if ast[0] == reference[0] == "ast":
        assert ast == reference
    elif (ast[0] == reference[0] == "error" and ast[2] == reference[2]
          and not PLACED_ELSEWHERE.search(ast[2])):
        assert ast == reference


G_DECLARED = "(chunk-type g a)(add-dm (g1 isa g a x))(goal-focus goal g1)"
RULE_R = "(p r =goal> isa g ==> -goal>)"


@pytest.mark.parametrize("piece, message", [
    ("(^chunk-type)", "chunk-type needs a name"),
    ("(add-dm ^(g1 g a x))", "chunk must read (NAME isa TYPE ...)"),
    ("(p ^(r) =goal> isa g ==> -goal>)", "expected a rule name, found a nested list"),
    ("(p r ^(x) ==> -goal>)", "expected a buffer test, found a nested list"),
    ("(p r =goal> isa ^(g) ==> -goal>)", "expected a type name, found a nested list"),
    ("(chunk-type ^(h) b)", "expected a type name, found a nested list"),
    ("(p r =goal> isa g ==> !bind! ^(v) src =goal> a =v)",
     "expected a variable, found a nested list"),
    ("(p r =goal> isa g ==> !bind! =v ^(src) =goal> a =v)",
     "expected a provider name, found a nested list"),
    (RULE_R + "(spp r :success ^yes)", ":success takes the literal 't'"),
    (RULE_R + "(spp r :failure ^yes)", ":failure takes the literal 't'"),
    (RULE_R + "(^spp r :cost 1)", "unknown annotation key ':cost'"),
], ids=["chunk-type-without-name", "chunk-without-isa", "nested-rule-name",
        "nested-buffer-test", "nested-test-type", "nested-chunk-type-name",
        "nested-bind-variable", "nested-bind-provider", "success-not-t", "failure-not-t",
        "unknown-annotation-key"])
def test_reader_errors_stand_at_the_token_they_name(piece, message):
    """'^' marks the token the error names in piece: the error stands where the
    character reader places that token, and where the reference reader places
    the error at the same token, it raises the same error."""
    text = G_DECLARED + piece.replace("^", "")
    column = len(G_DECLARED) + piece.index("^") + 1
    token, = [t for t in char_tokenize(text) if t.column == column]
    expected = ("error", ModelSyntaxError, message, token.line, token.column)
    assert outcome(parse_model, text) == expected
    if not PLACED_ELSEWHERE.search(message):
        assert outcome(reference_parse, text) == expected


@pytest.mark.parametrize("piece, diagnostic", [
    ("(chunk-type g a)", "chunk type 'g' declared twice"),
    ("(add-dm (g1 isa g a x))", "chunk 'g1' declared twice"),
    ("(goal-focus goal g1)", "buffer 'goal' initialized twice"),
], ids=["chunk-type", "chunk", "buffer"])
def test_a_declaration_made_twice_is_reported_as_the_reference_reports_it(piece, diagnostic):
    ast = parse_model(G_DECLARED + piece)
    assert validate_model(ast) == reference_validate(ast) == [diagnostic]


def test_unusual_spaces_stay_inside_atoms():
    assert spelled("(a\fb\vc\u00a0d\r\te ;x y\n f)") == [
        ("(", 1, 1), ("a\fb\vc\u00a0d", 1, 2), ("e", 1, 11), ("f", 2, 2), (")", 2, 3),
    ]
