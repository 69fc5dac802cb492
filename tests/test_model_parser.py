from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from actrsim.errors import (
    DuplicateBufferTest,
    DuplicateRuleName,
    ModelSyntaxError,
    UnboundRhsVariable,
    UnknownAnnotationTarget,
)
from actrsim.experiment import builtin_model_text
from actrsim.model import (
    CLEAR,
    MODIFY,
    Action,
    BufferTest,
    format_model,
    parse_model,
    validate_model,
)

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
    assert rule.source_index == 0
    assert rule.tests == (
        BufferTest("goal", "game", (("me", "rock"), ("opponent", "scissors"))),
    )
    assert rule.actions == (Action(MODIFY, "goal", (("result", "win"),)),)


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


def test_parse_bind_attaches_to_consuming_action():
    ast = parse_model(
        "(p play =goal> isa game me nil ==> !bind! =x next-move =goal> me =x)"
    )
    (rule,) = ast.productions
    assert rule.actions == (
        Action(MODIFY, "goal", (("me", "=x"),), (("=x", "next-move"),)),
    )


def test_parse_clearing_action():
    ast = parse_model("(p done =goal> isa game ==> -goal>)")
    assert ast.productions[0].actions == (Action(CLEAR, "goal"),)


def test_output_directive_is_ignored():
    with_output = parse_model(
        "(p play =goal> isa game me =x ==> !output! (rock =x) =goal> me nil)"
    )
    without = parse_model("(p play =goal> isa game me =x ==> =goal> me nil)")
    assert with_output.productions == without.productions


def test_request_action_rejected():
    with pytest.raises(ModelSyntaxError, match="unsupported"):
        parse_model("(p ask =goal> isa game ==> +retrieval> isa game)")


def test_unbound_rhs_variable_rejected():
    with pytest.raises(UnboundRhsVariable):
        parse_model("(p play =goal> isa game me nil ==> =goal> me =x)")


def test_unused_bind_rejected():
    with pytest.raises(ModelSyntaxError, match="never used"):
        parse_model("(p play =goal> isa game ==> !bind! =x feed =goal> me rock)")


def test_rebinding_lhs_variable_rejected():
    with pytest.raises(ModelSyntaxError, match="already bound"):
        parse_model("(p play =goal> isa game me =x ==> !bind! =x feed =goal> me =x)")


def test_duplicate_buffer_test_rejected():
    with pytest.raises(DuplicateBufferTest):
        parse_model("(p two =goal> isa game =goal> isa game ==> -goal>)")


def test_duplicate_rule_name_rejected():
    rule = "(p same =goal> isa game ==> -goal>)"
    with pytest.raises(DuplicateRuleName):
        parse_model(rule + rule)


def test_annotation_parsing():
    text = WIN_RULE + "(spp recognize-win :reward 2)(spp recognize-win :success t)"
    ast = parse_model(text)
    ann = ast.annotations["recognize-win"]
    assert ann.reward == Fraction(2)
    assert ann.success and not ann.failure


def test_annotation_unknown_target():
    with pytest.raises(UnknownAnnotationTarget):
        parse_model("(spp missing :reward 2)")


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


def test_source_index_matches_declaration_order(rps_model):
    indices = [p.source_index for p in rps_model.productions]
    assert indices == list(range(len(indices)))


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
    bad = replace(rps_model, annotations={**rps_model.annotations, "missing": None})
    diagnostics = validate_model(bad)
    assert any("missing" in d for d in diagnostics)


def test_validate_flags_undeclared_buffer():
    ast = parse_model(
        "(chunk-type game me)(add-dm (g1 isa game))(goal-focus goal g1)"
        "(p r =visual> isa game ==> -visual>)"
    )
    diagnostics = validate_model(ast)
    assert any("undeclared buffer 'visual'" in d for d in diagnostics)


def test_validate_flags_unknown_type_and_chunk():
    ast = parse_model(
        "(chunk-type game me)(add-dm (g1 isa deal))(goal-focus goal g2)"
    )
    diagnostics = validate_model(ast)
    assert any("unknown type" in d for d in diagnostics)
    assert any("unknown chunk" in d for d in diagnostics)
