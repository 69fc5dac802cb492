"""The benchmark workloads: seeded inputs, one measured pass, output checks.

Each workload builds its inputs from the seed once. `setup` is the one-time
set-up a user pays per model (parse, validate, first engine), `run_pass` is
the measured phase, and `check` compares that pass's outputs with the
independent references in `reference.py`, returning one (label, ok) pair
per checked output.

`run_pass(lap)` calls `lap()` at the end of each piece of its work (a few
milliseconds each: one run, or one stretch of simulated time), the same
pieces in the same order on every pass, so that run.py can time each piece
across passes.

Calls into the simulator go through module attributes (`model.parse_model`,
`experiment.run_single`, ...) so the traced run can wrap them.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from actrsim import engine as engine_mod
from actrsim import experiment, model, strategies

import inputs
import reference

REFERENCE_SEED = 1  # the seed whose rps-long and chain-wide digests are recorded


@dataclass
class PassOutput:
    firings: int
    runs: int
    texts: dict = field(default_factory=dict)  # output name -> CSV or trace text
    raw: list = field(default_factory=list)  # what the checks need beyond texts


def format_trace(pairs) -> str:
    """Trace lines as `actrsim run --trace` writes them, from (run, entry) pairs."""
    lines = [f"{run}\t" + engine_mod.format_trace_entry(entry) for run, entry in pairs]
    return "\n".join(lines) + "\n"


def no_lap():
    pass


class LapSink(list):
    """A trace sink that marks a lap when a run's trace arrives.

    `experiment.run_single` extends its sink once, after the run, so each
    lap covers one run.
    """

    def __init__(self, lap):
        super().__init__()
        self.lap = lap

    def extend(self, items):
        super().extend(items)
        self.lap()


def parse_and_validate(text):
    ast = model.parse_model(text)
    diagnostics = model.validate_model(ast)
    if diagnostics:
        raise ValueError("; ".join(diagnostics))
    return ast


class Workload:
    name = ""
    refraction = False

    def __init__(self, seed: int):
        self.seed = seed
        self.digests = reference.recorded_digests().get(self.digest_key(), {})

    def digest_key(self) -> str:
        return f"{self.name}/seed={self.seed}"

    def providers(self) -> dict:
        return {}

    def setup(self, text=None):
        """parse_model + validate_model + the first Engine on the model text."""
        ast = parse_and_validate(self.model_text if text is None else text)
        return engine_mod.Engine(
            ast, strategies.SuccessCostUtility(), self.providers(),
            refraction=self.refraction,
        )

    def digest_checks(self, texts: dict) -> list:
        return [
            (f"digest {name}", reference.digest(texts.get(name, "")) == expected)
            for name, expected in sorted(self.digests.items())
        ]


class RpsTables(Workload):
    """All nine published tables and their traces, from the bundled model.

    The inputs are the paper's own, so the seed does not change them.
    """

    name = "rps-tables"
    TABLES = [(s, p) for s in ("reinforcement", "success-cost") for p in (1, 2, 3)]
    RANDOM_COST_SEED = 84
    RANDOM_COST_RUNS = 50

    def __init__(self, seed):
        super().__init__(seed)
        self.model_text = experiment.builtin_model_text()
        self.ast = parse_and_validate(self.model_text)
        self.samples = {p: experiment.builtin_samples(p) for p in (1, 2, 3)}

    def digest_key(self):
        return self.name

    def providers(self):
        return {"next-move": iter(())}

    def run_pass(self, lap=no_lap):
        jobs = [
            (f"{s}-player{p}", experiment.HarnessConfig(strategy=s), self.samples[p])
            for s, p in self.TABLES
        ] + [
            (
                f"random-cost-player{p}",
                experiment.HarnessConfig(
                    strategy="random-cost", seed=self.RANDOM_COST_SEED,
                    runs=self.RANDOM_COST_RUNS,
                ),
                self.samples[p][:1],
            )
            for p in (1, 2, 3)
        ]
        out = PassOutput(0, 0)
        for name, config, samples in jobs:
            sink = LapSink(lap)
            report = experiment.run_experiment(self.ast, config, samples, sink)
            out.texts[f"{name}.csv"] = experiment.report_to_csv(report)
            out.texts[f"{name}.trace"] = format_trace(sink)
            lap()
            out.firings += len(sink)
            out.runs += len(report.rows)
        return out

    def check(self, out):
        checks = [
            (f"published {s}-player{p}",
             out.texts[f"{s}-player{p}.csv"] == reference.published(f"{s}-player{p}"))
            for s, p in self.TABLES
        ] + [
            (f"tolerance random-cost-player{p}",
             reference.random_cost_ok(
                 out.texts[f"random-cost-player{p}.csv"], p, self.RANDOM_COST_RUNS))
            for p in (1, 2, 3)
        ]
        return checks + self.digest_checks(out.texts)


class RpsLong(Workload):
    """One engine per strategy on the bundled model, fed a long seeded move stream."""

    name = "rps-long"
    T_LIMIT = 100  # simulated seconds: 1000 rounds, 2000 firings per engine

    def __init__(self, seed):
        super().__init__(seed)
        self.model_text = experiment.builtin_model_text()
        self.ast = parse_and_validate(self.model_text)
        self.moves = inputs.move_stream(seed, self.T_LIMIT * 10)

    def providers(self):
        return {"next-move": iter(self.moves)}

    def make_strategies(self):
        return [
            ("reinforcement", strategies.ReinforcementUtility()),
            ("success-cost", strategies.SuccessCostUtility()),
            ("random-cost", strategies.RandomCostUtility(
                rng=random.Random(f"rps-long/draws/{self.seed}"))),
        ]

    def run_pass(self, lap=no_lap):
        out = PassOutput(0, 0)
        for name, strategy in self.make_strategies():
            engine = engine_mod.Engine(self.ast, strategy, self.providers())
            for t in range(1, self.T_LIMIT + 1):  # 20 firings per simulated second
                trace = engine.run(Fraction(t))
                lap()
            out.raw.append((name, strategy, trace))
            out.firings += len(trace)
            out.runs += 1
        return out

    def check(self, out):
        checks = []
        rules = [p.name for p in self.ast.productions]
        for name, strategy, trace in out.raw:
            text = format_trace((1, entry) for entry in trace)
            entries = reference.parse_trace(text)
            checks.append((f"game {name}", reference.game_ok(entries, self.moves)))
            if name == "reinforcement":
                replayed = reference.replay_reinforcement(entries)
                state = {r: (strategy.utility(r),) for r in rules}
                expected = {r: (replayed.get(r, Fraction(0)),) for r in rules}
            else:
                replayed = reference.replay_success_cost(entries)
                state = {r: strategy.counters(r) for r in rules}
                expected = {r: tuple(replayed.get(r, (1, 0, reference.LATENCY)))
                            for r in rules}
            if name == "success-cost":  # random-cost utilities are the last draw
                state = {r: (*state[r], strategy.utility(r)) for r in rules}
                expected = {r: (*expected[r], reference.success_cost_utility(*expected[r]))
                            for r in rules}
            checks.append((f"replay {name}", state == expected))
            out.texts[f"{name}.trace"] = text
            out.texts[f"{name}.state"] = "".join(f"{r}\t{state[r]}\n" for r in rules)
        return checks + self.digest_checks(out.texts)


class ChainWide(Workload):
    """A generated chain of 400 rules, regenerated and parsed every pass.

    400 rules are enough for the rule scan and the parser's checks to
    dominate. On a shared host, the fastest pieces of an 800-rule pass moved
    by up to 70% between 15-second stretches, those of a 300-rule pass by
    about 10%.
    """

    name = "chain-wide"
    RULES = 400
    refraction = True

    def __init__(self, seed, rules=RULES):
        self.rules = rules
        super().__init__(seed)
        self.model_text = inputs.chain_model(seed, rules)

    def digest_key(self):
        return f"{self.name}/rules={self.rules}/seed={self.seed}"

    def run_pass(self, lap=no_lap):
        text = inputs.chain_model(self.seed, self.rules)
        engine = self.setup(text)
        lap()
        # rule r<k> fires at 0.05*(k+1) s: five firings per quarter second
        for quarter in range(1, self.rules // 5 + 2):
            engine.run(Fraction(quarter, 4))
            lap()
        trace = engine.run(Fraction(self.rules))
        lap()
        return PassOutput(len(trace), 1, raw=[engine, trace])

    def check(self, out):
        engine, trace = out.raw
        _, tags = inputs.chain_states(self.seed, self.rules)
        text = format_trace((1, entry) for entry in trace)
        out.texts["chain.trace"] = text
        return [
            ("chain fires r0..rN-1 in order", text == reference.chain_trace(tags)),
            ("chain halts", engine.queue.peek_time() is None),
        ] + self.digest_checks(out.texts)


WORKLOADS = {cls.name: cls for cls in (RpsTables, RpsLong, ChainWide)}
