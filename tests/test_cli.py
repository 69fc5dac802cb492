from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import actrsim
from actrsim.cli import build_arg_parser, main
from actrsim.errors import ModelSyntaxError, UnscorableModel
from actrsim.experiment import HarnessConfig, builtin_model_text, run_experiment
from actrsim.model import _tokenize, parse_model, validate_model

from oracle import reference_parse
from test_model_parser import CLEAR_THEN_MODIFY, MODEL_PIECES


PUBLISHED = Path(__file__).resolve().parent.parent / "bench" / "published"
GOLDEN = Path(__file__).resolve().parent / "golden"  # CI diffs the same files


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_player1_reinforcement_csv(capsys):
    code, out, err = run_cli(
        capsys, "run", "--player", "1", "--strategy", "reinforcement",
        "--tiebreak", "last-declared",
    )
    assert code == 0
    assert out.splitlines()[1] == "1,0.000,1.873,-0.020,19,0,1"


def test_player2_success_cost_average_row(capsys):
    code, out, err = run_cli(
        capsys, "run", "--player", "2", "--strategy", "success-cost",
        "--tiebreak", "first-declared",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 22  # header, 20 samples, average
    assert lines[-1] == "avg,7.440,19.822,12.419,8.9,9.1,2"


def test_explicit_model_and_samples_files(tmp_path, capsys):
    model = tmp_path / "game.model"
    model.write_text(builtin_model_text(), encoding="utf-8")
    samples = tmp_path / "moves.txt"
    samples.write_text(" ".join(["r"] * 20) + "\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "run", "--model", str(model), "--samples", str(samples)
    )
    assert code == 0
    assert out.splitlines()[1] == "1,0.000,1.873,-0.020,19,0,1"


def test_missing_model_file_exits_1(capsys):
    code, out, err = run_cli(capsys, "run", "--model", "nonexistent.model")
    assert code == 1
    assert "actrsim:" in err
    assert out == ""


def test_bad_model_text_exits_1_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("(p broken\n  =goal> isa)", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--model", str(bad))
    assert code == 1
    assert "broken" in err


def test_validation_diagnostics_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text(
        "(chunk-type game me)(add-dm (g1 isa game))(goal-focus goal g1)"
        "(p r =goal> isa game score low ==> -goal>)",
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "run", "--model", str(bad))
    assert code == 1
    assert "score" in err


def test_provider_exhaustion_exits_2(capsys):
    # 2.5 s needs a 21st move; the samples hold only 20
    code, _, err = run_cli(capsys, "run", "--player", "1", "--t-limit", "2.5")
    assert code == 2
    assert "runtime error" in err


def test_bad_alpha_exits_1(capsys):
    code, _, err = run_cli(capsys, "run", "--player", "1", "--alpha", "3")
    assert code == 1
    assert err == "actrsim: alpha must be in (0, 1]\n"


def test_a_goal_value_beyond_float_range_exits_1_before_the_trace_file_is_opened(
        tmp_path, capsys):
    # random-cost draws in floats, so its goal value must be within their range
    trace_path = tmp_path / "run.trace"
    code, out, err = run_cli(capsys, "run", "--strategy", "random-cost", "--goal-value",
                             "1e400", "--trace-file", str(trace_path))
    assert (code, out) == (1, "")
    assert err == "actrsim: goal value about 1e+400 is beyond float range\n"
    assert not trace_path.exists()


def test_alpha_is_checked_only_for_reinforcement(capsys):
    # success-cost learns no utility by alpha, so it ignores any value given
    code, out, err = run_cli(
        capsys, "run", "--alpha", "3", "--strategy", "success-cost", "--player", "3"
    )
    assert (code, err) == (0, "")
    assert out == (PUBLISHED / "success-cost-player3.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("flag", ["--t-limit", "--alpha", "--goal-value"])
def test_zero_denominator_is_a_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as excinfo:  # not a ZeroDivisionError
        main(["run", "--player", "1", flag, "1/0"])
    assert excinfo.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err


def test_clearing_a_buffer_another_rule_modifies_untested_exits_1(tmp_path, capsys):
    model = tmp_path / "clear.model"
    model.write_text(CLEAR_THEN_MODIFY, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--model", str(model))
    assert code == 1
    assert out == ""
    assert "rule 'tally' modifies buffer 'counter'" in err


def test_unknown_provider_exits_1_before_the_trace_file_is_opened(tmp_path, capsys):
    model = tmp_path / "typo.model"
    model.write_text(builtin_model_text().replace("next-move", "next-mov"),
                     encoding="utf-8")
    trace_path = tmp_path / "run.trace"
    code, out, err = run_cli(capsys, "run", "--model", str(model), "--player", "2",
                             "--trace-file", str(trace_path))
    assert code == 1
    assert out == ""
    assert err == "actrsim: no provider named 'next-mov' registered\n"
    assert not trace_path.exists()


def test_empty_sample_file_exits_1_before_the_trace_file_is_opened(tmp_path, capsys):
    samples = tmp_path / "none.txt"
    samples.write_text("# none\n", encoding="utf-8")
    trace_path = tmp_path / "run.trace"
    code, out, err = run_cli(capsys, "run", "--samples", str(samples),
                             "--trace-file", str(trace_path))
    assert code == 1
    assert out == ""
    assert err == f"actrsim: no samples in {samples}\n"
    assert not trace_path.exists()


UNSCORED = ("(chunk-type game me)(add-dm (g1 isa game me rock))(goal-focus goal g1)"
            "(p play-rock =goal> isa game ==> -goal>)")


def test_a_model_without_the_play_rules_exits_1_before_the_trace_file_is_opened(
        tmp_path, capsys):
    model = tmp_path / "unscored.model"
    model.write_text(UNSCORED, encoding="utf-8")
    trace_path = tmp_path / "run.trace"
    code, out, err = run_cli(capsys, "run", "--model", str(model),
                             "--trace-file", str(trace_path))
    assert code == 1
    assert out == ""
    assert err == ("actrsim: no rule named 'play-paper', 'play-scissors' in the model: "
                   "the report gives the utility of each of play-rock, play-paper, "
                   "play-scissors\n")
    assert not trace_path.exists()
    # the library refuses it the same way, before any run
    with pytest.raises(UnscorableModel, match="no rule named 'play-paper', 'play-scissors'"):
        run_experiment(parse_model(UNSCORED), HarnessConfig(), [("r",) * 20])


class FullStream(io.StringIO):
    """A stream with no room: every write fails as on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv, full", [
    (["run"], "stdout"),
    (["run", "--trace"], "stderr"),
    (["run"], "both"),
    (["run", "--trace"], "both"),
    (["--help"], "stdout"),  # argparse drops its failed write, main flushes and fails
    (["run", "--help"], "stdout"),
    (["bogus"], "stderr"),
])
def test_a_write_that_fails_exits_2_with_at_most_one_line(monkeypatch, capsys, argv, full):
    if full in ("stdout", "both"):
        monkeypatch.setattr(sys, "stdout", FullStream())
    if full in ("stderr", "both"):
        monkeypatch.setattr(sys, "stderr", FullStream())
    assert main(argv) == 2
    monkeypatch.undo()  # capsys reads what reached its own streams
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("" if full in ("stderr", "both") else  # then the status alone
                   "actrsim: cannot write output: [Errno 28] No space left on device\n")


def print_message_before_3_11(self, message, file=None):
    """argparse's _print_message as Python 3.10 has it: a failed write raises."""
    if message:
        (file or sys.stderr).write(message)


@pytest.mark.parametrize("argv, full", [
    (["--help"], "stdout"),
    (["run", "--help"], "stdout"),
    (["bogus"], "stderr"),
])
def test_an_argparse_write_that_raises_exits_2_as_one_that_fails_quietly(
        monkeypatch, capsys, argv, full):
    monkeypatch.setattr(argparse.ArgumentParser, "_print_message", print_message_before_3_11)
    monkeypatch.setattr(sys, full, FullStream())
    assert main(argv) == 2
    monkeypatch.undo()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("" if full == "stderr" else  # then the status alone
                   "actrsim: cannot write output: [Errno 28] No space left on device\n")


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("argv, stdout, stderr", [
    (["run"], "/dev/full", subprocess.PIPE),
    (["run", "--trace-file", "/dev/full"], subprocess.PIPE, subprocess.PIPE),
    (["run", "--trace"], subprocess.PIPE, "/dev/full"),
    (["run"], "/dev/full", "/dev/full"),
    (["--help"], "/dev/full", subprocess.PIPE),  # argparse's own output
    (["run", "--help"], "/dev/full", subprocess.PIPE),
    (["bogus"], subprocess.PIPE, "/dev/full"),
])
def test_output_on_a_full_device_exits_2_without_a_traceback(argv, stdout, stderr):
    # buffered streams, as by default: what a failed write leaves buffered would
    # fail again when Python flushes them at exit, with exit status 120
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(actrsim.__file__).parents[1])
    with contextlib.ExitStack() as stack:
        streams = [stack.enter_context(open(s, "w")) if isinstance(s, str) else s
                   for s in (stdout, stderr)]
        done = subprocess.run([sys.executable, "-m", "actrsim.cli", *argv], env=env,
                              stdout=streams[0], stderr=streams[1], text=True)
    assert done.returncode == 2
    assert done.stdout in (None, "")
    if stderr != "/dev/full":  # else the status alone, and Python says nothing at exit
        assert done.stderr == "actrsim: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0_with_the_parsers_text(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to this width
    with pytest.raises(SystemExit) as stop:
        build_arg_parser().parse_args(argv)
    assert stop.value.code == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: actrsim ")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(actrsim.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "actrsim.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, help_text, "")


def test_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--player", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["U_p"] == 1.873
    assert payload["config"]["strategy"] == "reinforcement"


def test_trace_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "run", "--player", "1", "--trace")
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 40
    assert lines[0].split("\t") == ["1", "0.050", "play-scissors", "=x=rock"]


def test_trace_file(tmp_path, capsys):
    trace_path = tmp_path / "run.trace"
    code, _, err = run_cli(
        capsys, "run", "--player", "1", "--trace-file", str(trace_path)
    )
    assert code == 0
    assert err == ""
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 40


def test_a_trace_is_the_same_bytes_on_stderr_and_in_a_file(tmp_path, capsys):
    trace_path = tmp_path / "run.trace"
    _, _, err = run_cli(capsys, "run", "--player", "3", "--trace")
    run_cli(capsys, "run", "--player", "3", "--trace-file", str(trace_path))
    assert err != "" and trace_path.read_text(encoding="utf-8") == err


def test_an_empty_trace_writes_nothing(tmp_path, capsys):
    # no rule fires before the first firing time, 50 ms
    trace_path = tmp_path / "run.trace"
    code, _, err = run_cli(capsys, "run", "--t-limit", "1/100", "--trace")
    assert code == 0 and err == ""
    code, _, err = run_cli(capsys, "run", "--t-limit", "1/100", "--trace-file",
                           str(trace_path))
    assert code == 0 and err == ""
    assert trace_path.read_bytes() == b""


@pytest.mark.parametrize("golden, argv", [
    ("json-reinforcement-player2.json", ("--format", "json", "--player", "2")),
    ("json-random-cost-player3.json", ("--format", "json", "--player", "3", "--strategy",
                                       "random-cost", "--sample", "1", "--seed", "84",
                                       "--runs", "50")),
    ("samples-file-sample2.csv", ("--samples", str(GOLDEN / "three-samples.txt"),
                                  "--sample", "2")),
])
def test_json_reports_and_a_samples_file_table_equal_the_golden_files(capsys, golden,
                                                                      argv):
    code, out, _ = run_cli(capsys, "run", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("strategy, extra", [
    ("reinforcement", ()),
    ("success-cost", ()),
    ("random-cost", ("--sample", "1", "--seed", "84", "--runs", "50")),
])
def test_refraction_tables_and_traces_equal_the_golden_files(tmp_path, capsys,
                                                             strategy, extra):
    trace_path = tmp_path / "run.trace"
    code, out, _ = run_cli(
        capsys, "run", "--refraction", "--player", "3", "--strategy", strategy,
        *extra, "--trace-file", str(trace_path),
    )
    assert code == 0
    golden = GOLDEN / f"refraction-{strategy}-player3"
    assert out == golden.with_suffix(".csv").read_text(encoding="utf-8")
    assert trace_path.read_text(encoding="utf-8") == (
        golden.with_suffix(".trace").read_text(encoding="utf-8"))


@pytest.mark.parametrize("tiebreak,strategy", [
    ("first-declared", "reinforcement"),  # every utility starts tied at 0
    ("last-declared", "success-cost"),  # every utility starts tied at 19.95
])
def test_tie_path_tables_and_traces_equal_the_golden_files(tmp_path, capsys,
                                                           tiebreak, strategy):
    trace_path = tmp_path / "run.trace"
    code, out, _ = run_cli(
        capsys, "run", "--tiebreak", tiebreak, "--strategy", strategy, "--player", "1",
        "--trace-file", str(trace_path),
    )
    assert code == 0
    golden = GOLDEN / f"tiebreak-{tiebreak}-{strategy}-player1"
    assert out == golden.with_suffix(".csv").read_text(encoding="utf-8")
    assert trace_path.read_text(encoding="utf-8") == (
        golden.with_suffix(".trace").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, argv", [
    ("reinforcement", ("--strategy", "reinforcement")),
    ("reinforcement-alpha-1-3", ("--strategy", "reinforcement", "--alpha", "1/3")),
    ("success-cost", ("--strategy", "success-cost")),
])
def test_fractional_reward_tables_and_traces_equal_the_golden_files(tmp_path, capsys,
                                                                   name, argv):
    # rewards such as 5/3 and -1/7 sit off the millisecond grid
    trace_path = tmp_path / "run.trace"
    code, out, _ = run_cli(
        capsys, "run", "--model", str(GOLDEN / "fractional-rewards.model"), "--player", "2",
        *argv, "--trace-file", str(trace_path),
    )
    assert code == 0
    golden = GOLDEN / f"fractional-rewards-{name}-player2"
    assert out == golden.with_suffix(".csv").read_text(encoding="utf-8")
    assert trace_path.read_text(encoding="utf-8") == (
        golden.with_suffix(".trace").read_text(encoding="utf-8"))


def test_trace_file_in_missing_directory_exits_1_before_running(tmp_path, capsys):
    trace_path = tmp_path / "missing" / "run.trace"
    code, out, err = run_cli(
        capsys, "run", "--player", "1", "--trace-file", str(trace_path)
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("actrsim: ")


def test_random_cost_output_is_reproducible(capsys):
    args = ("run", "--player", "2", "--strategy", "random-cost",
            "--seed", "9", "--runs", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_selector_restricts_to_one_sample(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--player", "2", "--sample", "1", "--strategy",
        "random-cost", "--runs", "50", "--seed", "84",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 52  # header, 50 runs, average
    avg = lines[-1].split(",")
    assert abs(float(avg[2]) - 18.910) <= 0.5  # paper-level mean for U_p


def test_sample_selector_out_of_range(capsys):
    code, _, err = run_cli(capsys, "run", "--player", "2", "--sample", "21")
    assert code == 1
    assert "out of range" in err


def test_run_defaults_are_the_config_defaults():
    args = build_arg_parser().parse_args(["run"])
    for name in HarnessConfig._fields:
        assert getattr(args, name) == getattr(HarnessConfig(), name), name


# the harness reports the utilities of the three play rules, so a model it runs
# has all three; these two never match a game chunk holding me rock
OTHER_PLAY_RULES = ("(p play-paper =goal> isa game me paper ==> -goal>)"
                    "(p play-scissors =goal> isa game me scissors ==> -goal>)")


def test_deeply_nested_output_argument_is_dropped_without_a_traceback(tmp_path):
    # the reader drops an !output! argument unread, however deep it nests
    model = tmp_path / "deep.model"
    model.write_text(
        "(chunk-type game me)(add-dm (g1 isa game me rock))(goal-focus goal g1)"
        "(p play-rock =goal> isa game ==> !output! " + "(" * 3000 + "x" + ")" * 3000
        + " -goal>)" + OTHER_PLAY_RULES + "\n",
        encoding="utf-8",
    )
    env = {**os.environ, "PYTHONPATH": str(Path(actrsim.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "actrsim.cli", "run", "--model", str(model)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("sample,U_r,U_p,U_s,wins,draws,defeats\n")
    assert done.stdout.splitlines()[-1].startswith("avg,")
    assert "Traceback" not in done.stderr


# -- fuzz: numeric flags at any magnitude ------------------------------------------------

# 0, and numbers of either sign from 10**-400 to 10**400, as exact "n/d" text
MAGNITUDES = st.builds(lambda m, e: m * Fraction(10) ** e,
                       st.fractions(1, 10, max_denominator=1000), st.integers(-400, 399))
NUMBERS = st.just(Fraction(0)) | st.builds(
    lambda sign, m: sign * m, st.sampled_from([1, -1]), MAGNITUDES)


@settings(max_examples=120, deadline=None)
@given(flag=st.sampled_from(["--alpha", "--goal-value", "--t-limit"]),
       value=NUMBERS.map(str),
       strategy=st.sampled_from(["reinforcement", "success-cost", "random-cost"]))
@example(flag="--goal-value", value="1e400", strategy="random-cost")
@example(flag="--goal-value", value="-1e400", strategy="random-cost")
@example(flag="--alpha", value="1e-400", strategy="reinforcement")
@example(flag="--t-limit", value="1e400", strategy="random-cost")
@example(flag="--goal-value", value="1e5000", strategy="random-cost")
def test_no_numeric_flag_ends_in_a_traceback(flag, value, strategy):
    # the '=' form: argparse would read a bare '-1e400' as an option
    argv = ["run", f"{flag}={value}", "--strategy", strategy, "--player", "1", "--sample", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # no exception, SystemExit included, may leave main
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1
    assert len(err.getvalue()) <= 201  # a value of any size is named in a few characters


# -- fuzz: mutated model text under varied flags ----------------------------------------

MODEL_TOKENS = _tokenize(builtin_model_text())
VALUES = ["rock", "paper", "scissors", "nil", "=x", "=y", "next-move", "next-mov"]
PIECES = VALUES + ["1/0", "+goal>", "=visual>", "!output!", "add-dm", "(", ")"] + sorted(
    set(MODEL_TOKENS))


@st.composite
def mutated_models(draw):
    """The bundled model's tokens with 1-4 deleted, inserted or substituted.

    In half the models every edit swaps one value for another, so that most
    of those still parse and many run.
    """
    tokens = list(MODEL_TOKENS)
    values_only = draw(st.booleans())
    for _ in range(draw(st.integers(1, 4))):
        if values_only:
            at = draw(st.sampled_from([i for i, t in enumerate(tokens) if t in VALUES]))
            tokens[at] = draw(st.sampled_from(VALUES))
            continue
        at = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["substitute", "insert", "delete"]))
        if edit == "delete":
            del tokens[at]
        elif edit == "insert":
            tokens.insert(at, draw(st.sampled_from(PIECES)))
        else:
            tokens[at] = draw(st.sampled_from(PIECES))
    return " ".join(tokens)


@settings(max_examples=150, deadline=None)
@given(
    text=mutated_models(),
    player=st.integers(1, 3),
    strategy=st.sampled_from(["reinforcement", "success-cost", "random-cost"]),
    refraction=st.booleans(),
    runs=st.sampled_from([1, 0, 2]),
    sample=st.sampled_from([None, 1, 0, 21, 2]),
    t_limit=st.sampled_from(["2", "1/2", "5", "0"]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_cli_exits_0_1_or_2_with_one_line_on_error(
        text, player, strategy, refraction, runs, sample, t_limit, fmt):
    with tempfile.TemporaryDirectory() as directory:
        model = Path(directory) / "mutated.model"
        model.write_text(text, encoding="utf-8")
        argv = ["run", "--model", str(model), "--player", str(player),
                "--strategy", strategy, "--runs", str(runs), "--t-limit", t_limit,
                "--format", fmt]
        argv += ["--refraction"] * refraction
        argv += [] if sample is None else ["--sample", str(sample)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:  # argparse's usage error
                assert stop.code == 2
                return
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("actrsim: ")


# -- the reader against the reference reader, on the same texts --------------------------

# the only texts the reference reader accepts and the reader rejects: a token
# that cannot be a slot name where a slot name stands, or a token that ends a
# slot list where a value stands
TIGHTENED = re.compile(r"is not a slot name|test, found '!(bind|output)!'|has no value")

NAME = "('[^']*')"
UNKNOWN_SPP = f"spp names unknown rule {NAME}"
NOT_BOUND = f"rule {NAME}: {NAME} is not bound on the left-hand side or by !bind!"
# the reference reader's semantic checks, which validate_model now makes
# instead: each reference message, and the diagnostic that names the same things
MOVED = [
    (f"rule {NAME} declared twice", f"rule {NAME} declared twice"),
    (f"rule {NAME} tests buffer {NAME} twice", f"rule {NAME} tests buffer {NAME} twice"),
    (f"rule {NAME} tests slot {NAME} twice",
     f"rule {NAME} test on '.*' names slot {NAME} twice"),
    (f"rule {NAME} updates slot {NAME} twice",
     f"rule {NAME} update of '.*' names slot {NAME} twice"),
    (NOT_BOUND, f"rule {NAME} updates slot '.*' with unbound variable {NAME}"),
    (f"rule {NAME}: !bind! variable {NAME} is never used by an action",
     f"rule {NAME} binds {NAME}, which no modification reads"),
    (f"rule {NAME}: variable {NAME} is already bound",
     f"rule {NAME} binds {NAME}, which is already bound"),
    (f"rule {NAME}: !bind! target {NAME} is not a variable",
     f"rule {NAME} binds {NAME}, which is not a variable"),
    (f"chunk {NAME} may not hold the variable {NAME}",
     f"chunk {NAME} may not hold the variable {NAME}"),
    (UNKNOWN_SPP, f"annotation targets unknown rule {NAME}"),
]


def read_with(parse, text):
    try:
        return parse(text)
    except ModelSyntaxError as error:
        return error


@settings(max_examples=300, deadline=None)
@given(mutated_models() | MODEL_PIECES)
@example("(p r =goal> isa g me x me y ==> -goal>)")  # a slot tested twice
@example("(add-dm (g1 isa game me nil me rock))")  # a slot filled twice
@example("(p r =goal> isa g ==> =goal> me rock !output! (me) !bind! =y f =goal> me =y)")
@example("(p r =goal> isa g ==>\n (foo))")  # a list where an action stands
@example("(p r =goal> isa g me =retrieval> isa g ==> -goal>)")  # a value missing
@example("(p r =goal> isa g ==> -goal>)(p r =goal> isa g ==> -goal>)")  # a rule twice
@example("(p r =goal> isa g =goal> isa g ==> -goal>)")  # a buffer tested twice
@example("(p r =goal> isa g ==> =goal> me =x)")  # an unbound variable
@example("(p r =goal> isa g me =x ==> !bind! =x f =goal> me =x)")  # bound already
@example("(p r =goal> isa g ==> !bind! x f =goal> me x)")  # a bind of a constant
@example("(add-dm (g1 isa game me =x))")  # a chunk holding a variable
@example("(spp r :success t)")  # an annotation of no rule
@example("(spp r :success t)(p r =goal> isa g ==> -goal>)")  # before its rule
@example("(p r =goal> isa g ==> !bind! =x f =goal> me rock)")  # a bind no update reads
@example("(p r =goal> isa g ==> =goal> me =x !bind! =x f)")  # a bind after its reader
def test_reader_equals_the_reference_reader_but_for_the_tightened_rules(text):
    ast = read_with(parse_model, text)
    reference = read_with(reference_parse, text)
    if isinstance(ast, ModelSyntaxError):
        assert ast.line is not None and ast.column is not None
        if not isinstance(reference, ModelSyntaxError):
            assert TIGHTENED.search(str(ast))
        return
    if not isinstance(reference, ModelSyntaxError):
        assert ast == reference
        return
    # only the reader accepts: validate_model reports what the reference rejected
    ((moved, found),) = [(diagnostic, match) for message, diagnostic in MOVED
                         if (match := re.search(message, str(reference)))]
    if found.re.pattern == UNKNOWN_SPP and found[1] in {repr(p.name) for p in ast.productions}:
        return  # a spp may come before its rule
    binds = {(repr(p.name), repr(var)) for p in ast.productions for var, _ in p.binds}
    if found.re.pattern == NOT_BOUND and found.groups() in binds:
        return  # a !bind! may come after its reader: every bind is drawn first
    assert any(match and match.groups() == found.groups()
               for match in (re.fullmatch(moved, d) for d in validate_model(ast)))
