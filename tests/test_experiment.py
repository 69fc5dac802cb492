from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from actrsim.engine import compile_model
from actrsim.errors import EmptyResults, MalformedMove, WrongLength
from actrsim.experiment import (
    HarnessConfig,
    RunResult,
    build_strategy,
    builtin_samples,
    config_echo,
    format_count,
    format_utility,
    parse_samples,
    report_to_csv,
    report_to_json,
    round_thousandths,
    run_experiment,
    run_single,
    summarize,
)
from actrsim.model import validate_model

from oracle import reference_format_utility, reference_round_thousandths

# move frequencies (rock, paper, scissors) per shipped sample, used to
# cross-check the data files against an independent transcription
PLAYER2_FREQUENCIES = [
    (11, 9, 0), (10, 10, 0), (11, 9, 0), (11, 9, 0), (6, 14, 0),
    (11, 9, 0), (13, 7, 0), (14, 6, 0), (11, 9, 0), (5, 15, 0),
    (9, 11, 0), (11, 9, 0), (10, 10, 0), (7, 13, 0), (11, 9, 0),
    (12, 8, 0), (11, 9, 0), (13, 7, 0), (9, 11, 0), (11, 9, 0),
]
PLAYER3_FREQUENCIES = [
    (6, 3, 11), (5, 5, 10), (7, 6, 7), (8, 7, 5), (6, 9, 5),
    (4, 9, 7), (7, 9, 4), (6, 8, 6), (12, 3, 5), (7, 4, 9),
    (4, 6, 10), (11, 5, 4), (6, 7, 7), (7, 8, 5), (5, 2, 13),
    (14, 3, 3), (6, 6, 8), (8, 7, 5), (8, 3, 9), (8, 6, 6),
]


def counts(sample):
    return tuple(sample.count(m) for m in "rps")


def test_builtin_player1_is_all_rock():
    (sample,) = builtin_samples(1)
    assert sample == ("r",) * 20
    assert counts(sample) == (20, 0, 0)


@pytest.mark.parametrize("player,expected", [(2, PLAYER2_FREQUENCIES),
                                             (3, PLAYER3_FREQUENCIES)])
def test_builtin_sample_frequencies(player, expected):
    samples = builtin_samples(player)
    assert len(samples) == 20
    assert all(isinstance(s, tuple) and len(s) == 20 for s in samples)
    assert [counts(s) for s in samples] == expected


def test_unknown_strategy():
    with pytest.raises(ValueError, match="^unknown strategy 'bogus'$"):
        build_strategy(HarnessConfig(strategy="bogus"), 0)


def test_unknown_builtin_player():
    with pytest.raises(ValueError):
        builtin_samples(4)


def test_parse_samples_rejects_bad_token():
    with pytest.raises(MalformedMove):
        parse_samples("r p s x " + "r " * 16)


def test_parse_samples_rejects_wrong_length():
    with pytest.raises(WrongLength):
        parse_samples("r p s\n")


def test_parse_samples_skips_blank_and_comment_lines():
    text = "# heading\n\n" + " ".join(["r"] * 20) + "\n"
    assert parse_samples(text) == [("r",) * 20]


def test_player1_reinforcement_matches_reference(rps_model):
    report = run_experiment(
        rps_model, HarnessConfig(strategy="reinforcement"), builtin_samples(1)
    )
    (row,) = report.rows
    assert [format_utility(u) for u in row.utilities] == ["0.000", "1.873", "-0.020"]
    assert (row.wins, row.draws, row.defeats) == (19, 0, 1)


def test_player1_success_cost_matches_reference(rps_model):
    report = run_experiment(
        rps_model, HarnessConfig(strategy="success-cost"), builtin_samples(1)
    )
    (row,) = report.rows
    assert [format_utility(u) for u in row.utilities] == ["19.950"] * 3
    assert (row.wins, row.draws, row.defeats) == (0, 20, 0)


def test_zero_time_limit_changes_nothing(rps_model):
    report = run_experiment(
        rps_model,
        HarnessConfig(strategy="success-cost", t_limit=Fraction(0)),
        builtin_samples(1),
    )
    (row,) = report.rows
    assert row.utilities == (Fraction("19.95"),) * 3  # initial utility values
    assert (row.wins, row.draws, row.defeats) == (0, 0, 0)


def test_round_accounting(rps_model):
    trace_sink = []
    config = HarnessConfig(strategy="reinforcement")
    result = run_single(rps_model, config, builtin_samples(2)[0], 1, 0, trace_sink)
    assert result.wins + result.draws + result.defeats == 20
    rules = [entry.rule for _, entry in trace_sink]
    assert len(rules) == 40
    assert all(r.startswith("play-") for r in rules[0::2])
    assert all(r.startswith("detect-") for r in rules[1::2])


def test_the_tally_equals_a_count_of_each_trace_entry(rps_model):
    rng = random.Random(2424)
    program = compile_model(rps_model)
    tallied = 0
    for number in range(40):
        sample = tuple(rng.choice("rps") for _ in range(20))
        for strategy in ("reinforcement", "success-cost", "random-cost"):
            config = HarnessConfig(strategy=strategy, refraction=number % 4 == 0,
                                   t_limit=Fraction(rng.randrange(2001), 1000))
            sink = []
            result = run_single(program, config, sample, 1, number, sink)
            counts = tuple(
                sum(entry.rule.startswith(f"detect-{kind}-") for _, entry in sink)
                for kind in ("win", "draw", "defeat"))
            assert (result.wins, result.draws, result.defeats) == counts
            tallied += sum(counts)
    assert tallied > 500  # runs stop at drawn limits, and some halt under refraction


def test_summarize_single_result_is_identity():
    row = RunResult(1, (Fraction(1), Fraction(2), Fraction(3)), 19, 0, 1)
    report = summarize([row])
    assert report.averages.utilities == (1, 2, 3)
    assert (report.averages.wins, report.averages.draws,
            report.averages.defeats) == (19, 0, 1)


def test_summarize_empty_rejected():
    with pytest.raises(EmptyResults):
        summarize([])


def test_rounding_half_away_from_zero():
    assert round_thousandths(Fraction("14.8875")) == Fraction("14.888")
    assert round_thousandths(Fraction("-14.8875")) == Fraction("-14.888")
    assert round_thousandths(Fraction("1.8726181142655873")) == Fraction("1.873")


def test_format_utility():
    assert format_utility(Fraction("-0.02")) == "-0.020"
    assert format_utility(Fraction("19.95")) == "19.950"
    assert format_utility(Fraction(0)) == "0.000"
    assert format_utility(Fraction("14.8875")) == "14.888"


# exact halves of a thousandth, either sign, and their nearest neighbours
HALVES = st.builds(
    lambda k, nudge: Fraction(2 * k + 1, 2000) + Fraction(nudge, 10**9),
    st.integers(min_value=-10**6, max_value=10**6), st.sampled_from((0, 1, -1)),
)
REPORTED = (st.fractions() | HALVES | st.integers(min_value=-10**9, max_value=10**9)
            | st.floats(min_value=-1e6, max_value=1e6))


@given(REPORTED)
def test_rounding_equals_the_fraction_formulas(value):
    assert round_thousandths(value) == reference_round_thousandths(value)
    assert format_utility(value) == reference_format_utility(value)


def test_format_count():
    assert format_count(Fraction(2)) == "2"
    assert format_count(Fraction(89, 10)) == "8.9"
    assert format_count(13.94) == "13.94"
    assert format_count(5) == "5"


def test_averages_of_sixteen_rows_round_half_away_from_zero():
    # one win in sixteen rows is 0.0625 wins: half away from zero, as utilities
    rows = [RunResult(i, (Fraction(1, 16),) * 3, int(i == 1), 5 * (i <= 1), 0)
            for i in range(1, 17)]
    avg_line = report_to_csv(summarize(rows)).splitlines()[-1]
    assert avg_line == "avg,0.063,0.063,0.063,0.063,0.313,0"


def test_json_averages_of_sixteen_rows_round_as_in_csv():
    rows = [RunResult(i, (Fraction(1, 16),) * 3, int(i == 1), 5 * (i <= 1), 0)
            for i in range(1, 17)]
    payload = json.loads(report_to_json(summarize(rows)))
    assert payload["average"] == {"sample": "avg", "U_r": 0.063, "U_p": 0.063, "U_s": 0.063,
                                  "wins": 0.063, "draws": 0.313, "defeats": 0.0}
    assert payload["rows"][0]["wins"] == 1 and type(payload["rows"][0]["wins"]) is int


def test_csv_report_shape(rps_model):
    report = run_experiment(
        rps_model, HarnessConfig(strategy="reinforcement"), builtin_samples(1)
    )
    lines = report_to_csv(report).splitlines()
    assert lines[0] == "sample,U_r,U_p,U_s,wins,draws,defeats"
    assert lines[1] == "1,0.000,1.873,-0.020,19,0,1"
    assert lines[2] == "avg,0.000,1.873,-0.020,19,0,1"


def test_json_report_mirrors_csv(rps_model):
    report = run_experiment(
        rps_model, HarnessConfig(strategy="reinforcement"), builtin_samples(1)
    )
    payload = json.loads(report_to_json(report))
    assert payload["config"]["strategy"] == "reinforcement"
    assert payload["config"]["tiebreak"] == "last-declared"
    assert payload["rows"][0]["U_p"] == 1.873
    assert payload["average"]["wins"] == 19


def test_config_echo_reads_every_field():
    assert config_echo(HarnessConfig()) == {
        "strategy": "reinforcement", "alpha": "1/5", "goal_value": "20",
        "tiebreak": "last-declared", "refraction": False, "seed": 0, "runs": 1,
        "t_limit": "2",
    }
    # a Fraction-typed field is text even when it holds an int
    assert config_echo(HarnessConfig(alpha=1))["alpha"] == "1"


def test_multi_run_rows_use_distinct_seeds(rps_model):
    config = HarnessConfig(strategy="random-cost", seed=3, runs=4)
    report = run_experiment(rps_model, config, builtin_samples(1))
    assert [row.index for row in report.rows] == [1, 2, 3, 4]
    # distinct seeds make at least one pair of rows differ
    assert len({row.utilities for row in report.rows}) > 1


def test_report_determinism_with_fixed_seed(rps_model):
    config = HarnessConfig(strategy="random-cost", seed=11, runs=5)
    first = report_to_csv(run_experiment(rps_model, config, builtin_samples(1)))
    second = report_to_csv(run_experiment(rps_model, config, builtin_samples(1)))
    assert first == second


def test_an_experiment_validates_its_model_once(rps_model, monkeypatch):
    calls = []

    def counting(ast):
        calls.append(ast)
        return validate_model(ast)

    monkeypatch.setattr("actrsim.engine.validate_model", counting)
    report = run_experiment(rps_model, HarnessConfig(), builtin_samples(2)[:10])
    assert len(report.rows) == 10
    assert calls == [rps_model]
