"""Command-line entry point.

    actrsim run --model rps.model --player 1 --strategy reinforcement

Reports go to standard output as CSV (or JSON with --format json); traces go
to standard error or --trace-file. Exit codes: 0 on success, 1 on bad input
(found before any run), 2 on runtime errors such as an exhausted move provider
or output that cannot be written. Each error is one ``actrsim: ...`` line on
standard error, or no line where standard error cannot be written either.
"""

import argparse
import contextlib
import os
import sys
from fractions import Fraction

from . import experiment, strategies
from .engine import compile_model, format_trace_entry
from .errors import EngineError
from .model import parse_model


def fraction(text: str) -> Fraction:
    """An exact number; a zero denominator is a usage error like any bad number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} divides by zero") from None


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actrsim",
        description="Production-rule cognitive engine and its game harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a model against opponent samples")
    run.add_argument("--model", help="model file (default: the builtin game model)")
    source = run.add_mutually_exclusive_group()
    source.add_argument("--player", type=int, choices=(1, 2, 3),
                        help="builtin opponent sample set")
    source.add_argument("--samples", help="sample file, one 20-move line per sample")
    run.add_argument("--sample", type=int,
                     help="use only the Nth sample (1-based) of the loaded set")
    run.add_argument("--strategy", choices=tuple(strategies.STRATEGIES))
    run.add_argument("--refraction", action="store_true",
                     help="never fire the same rule instantiation twice")
    run.add_argument("--alpha", type=fraction,
                     help="learning rate for the reinforcement strategy")
    run.add_argument("--goal-value", type=fraction,
                     help="goal value G for the cost-based strategies")
    run.add_argument("--tiebreak", choices=strategies.TIEBREAK_POLICIES,
                     help="override the strategy's declaration-order tie-break")
    run.add_argument("--seed", type=int)
    run.add_argument("--runs", type=int,
                     help="repeated runs per sample (distinct derived seeds)")
    run.add_argument("--t-limit", type=fraction, help="simulated seconds per run")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--trace", action="store_true",
                     help="write one line per rule firing to stderr")
    run.add_argument("--trace-file", help="write the firing trace to a file")
    # each run parameter's dest is a HarnessConfig field, whose default it takes
    run.set_defaults(**experiment.HarnessConfig._field_defaults)
    return parser


def _load_model(args):
    if args.model:
        with open(args.model, encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = experiment.builtin_model_text()
    program = compile_model(parse_model(text))
    # both before --trace-file is opened
    program.check_providers(experiment.PROVIDERS)
    experiment.check_play_rules(program)
    return program


def _load_samples(args):
    if args.samples:
        samples = experiment.load_samples(args.samples)
        if not samples:  # checked before --trace-file is opened
            raise ValueError(f"no samples in {args.samples}")
    else:
        samples = experiment.builtin_samples(args.player if args.player else 1)
    if args.sample is not None:
        if not 1 <= args.sample <= len(samples):
            raise ValueError(
                f"--sample {args.sample} out of range (1..{len(samples)})"
            )
        samples = [samples[args.sample - 1]]
    return samples


def _check_config(config):
    experiment.build_strategy(config, config.seed)  # the strategy checks its own parameters
    if config.t_limit <= 0:
        raise ValueError("--t-limit must be positive")
    if config.runs < 1:
        raise ValueError("--runs must be at least 1")


def _emit(stream, text: str) -> None:
    """Write text to stream and flush it.

    On an OSError, point the stream's file descriptor, if it has one, at
    os.devnull before raising: what the failed write left buffered then goes
    nowhere when Python flushes the stream at exit, which would otherwise
    print "Exception ignored" and exit 120 (the idiom of the note on SIGPIPE
    in the docs of the signal module).
    """
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = stream.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        raise


def _fail(status: int, message: str) -> int:
    """Report message as one line on stderr and return status; if stderr
    cannot take it either, the status alone."""
    with contextlib.suppress(OSError):
        _emit(sys.stderr, f"actrsim: {message}\n")
    return status


def run_command(args) -> int:
    config = experiment.HarnessConfig(
        *[getattr(args, name) for name in experiment.HarnessConfig._fields]
    )
    try:
        _check_config(config)
        program = _load_model(args)
        samples = _load_samples(args)
        trace_file = None
        if args.trace_file:  # opened first, so a bad path fails before the run
            trace_file = open(args.trace_file, "w", encoding="utf-8")
    except (EngineError, OSError, ValueError) as exc:
        return _fail(1, str(exc))
    trace_sink = [] if (args.trace or args.trace_file) else None
    try:
        with trace_file or contextlib.nullcontext():
            try:
                report = experiment.run_experiment(program, config, samples, trace_sink)
            except EngineError as exc:
                return _fail(2, f"runtime error: {exc}")
            if trace_sink is not None:
                _emit(trace_file or sys.stderr, "".join(
                    f"{run}\t{format_trace_entry(entry)}\n" for run, entry in trace_sink))
        to_text = experiment.report_to_json if args.format == "json" else experiment.report_to_csv
        _emit(sys.stdout, to_text(report))
    except OSError as exc:  # the trace or the report could not be written
        return _fail(2, f"cannot write output: {exc}")
    return 0


def main(argv=None) -> int:
    # `run` is the one command, and argparse exits 2 on anything else
    try:
        args = build_arg_parser().parse_args(argv)
    except (SystemExit, OSError) as stop:  # after help or a usage error: argparse
        try:  # drops a failed write (before Python 3.11 it raises it), so what it
            _emit(sys.stdout, "")  # left is flushed here rather than at exit
            _emit(sys.stderr, "")
        except OSError as exc:
            return _fail(2, f"cannot write output: {exc}")
        if isinstance(stop, OSError):
            return _fail(2, f"cannot write output: {stop}")
        raise
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main())
