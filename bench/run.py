"""Layered benchmark for actrsim: end-to-end metrics and a traced per-layer run.

Run from the root of a checkout; the simulator is imported from `src/`:

    python3 bench/run.py --workload rps-tables --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload chain-wide --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload rps-long --seed 2 --out new.jsonl
    python3 bench/run.py --compare old.jsonl new.jsonl

Workloads (why each exists is recorded in BENCHMARK.json):
  rps-tables  the nine published tables and their traces: 232 short runs.
  rps-long    one engine per strategy on a long seeded move stream.
  chain-wide  a generated 400-rule chain, regenerated and parsed every pass.

--trace 0 repeats rounds of one set-up and one measured pass for --seconds.
Set-up time is the median of its samples. wall_s is one pass summed from
its pieces of a few milliseconds each (see workloads.py), each piece at its
fastest over the run's passes; the rates divide the pass's firings and
runs by it. On a shared host other tenants slow this process by up to 2x,
in stretches from tens of milliseconds to minutes long. A pass of half a
second or more mixes fast and slow stretches in proportions that drift, and
the fastest pass moved by 30-45% from run to run; a piece of milliseconds
often runs wholly inside a fast stretch, so the sum of the fastest pieces
moves only when a slow stretch outlasts most of a run. The raw pass times
are printed as well.

--trace 1 wraps every layer's entry points (see tracing.py), reports self
time and counters per layer, the tracing overhead, and how match and parse
cost grow with rule count, and writes the spans to .bench_out/. It also
reports cli_s, the fastest wall time of an `actrsim run --player 3
--strategy success-cost` subprocess. The CLI is a per-layer reading rather
than an end-to-end one because a subprocess of a fifth of a second cannot
be timed in pieces, and its fastest moved by 40% from run to run. Everything
runs in this one process, without worker threads; the CLI subprocesses run
one at a time.

Every output is checked against reference.py. The last line of standard
output is the JSON result; on any mismatch the exit code is 1.
--out appends a record with the environment to a JSON-lines file, and
--compare prints medians, quartiles, ratios and bound verdicts of two such
files.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
SCALING_SMALL, SCALING_LARGE = 50, 800  # rules in the chains of the scaling readings
CLI_ARGS = ["-m", "actrsim.cli", "run", "--player", "3", "--strategy", "success-cost"]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed(fn):
    start = time.perf_counter_ns()
    result = fn()
    return (time.perf_counter_ns() - start) / 1e9, result


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in SRC.rglob("*.py")
    )
    return {"python": platform.python_version(), "commit": commit,
            "nproc": os.cpu_count(), "src_lines": src_lines}


def time_cli(expected: str):
    """Wall time of one `actrsim run` subprocess, and whether its CSV is right."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    wall, proc = timed(lambda: subprocess.run(
        [sys.executable, *CLI_ARGS], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    ))
    return wall, proc.returncode == 0 and proc.stdout == expected


class Laps:
    """Times of the pieces of a pass, by their position in the pass.

    Call `start()` before a pass; the workload calls the object after each
    piece, so every piece is the time since the mark before it.
    """

    def __init__(self):
        self.pieces = []  # piece index -> its times across passes, in ns

    def start(self):
        self.index = 0
        self.last = time.perf_counter_ns()

    def __call__(self):
        now = time.perf_counter_ns()
        if self.index == len(self.pieces):
            self.pieces.append([])
        self.pieces[self.index].append(now - self.last)
        self.index += 1
        self.last = now

    def fastest_total(self) -> float:
        """Seconds for one pass, each piece at its fastest."""
        return sum(min(times) for times in self.pieces) / 1e9


def measure(workload, seconds):
    """End-to-end samples: one set-up and one measured pass per round."""
    samples = {name: [] for name in ("setup_s", "pass_s")}
    laps = Laps()
    checks = []
    deadline = time.perf_counter() + seconds
    while len(samples["pass_s"]) < MIN_PASSES or time.perf_counter() < deadline:
        samples["setup_s"].append(timed(workload.setup)[0])
        gc.collect()
        laps.start()
        wall, out = timed(lambda: workload.run_pass(laps))
        samples["pass_s"].append(wall)
        checks += workload.check(out)
    wall = laps.fastest_total()
    metrics = {
        "wall_s": (wall, "s"),
        "firings_per_s": (out.firings / wall, "1/s"),
        "runs_per_s": (out.runs / wall, "1/s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
    }
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return metrics, samples, checks


def chain_probe(seed, rules):
    """Traced chain-wide pass: (match s per firing, parse s per kB, checks)."""
    import tracing
    import workloads

    chain = workloads.ChainWide(seed, rules)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        out = chain.run_pass()
    self_ns = tracer.self_ns()
    kb = len(chain.model_text.encode("utf-8")) / 1024
    return (self_ns["engine.match"] / 1e9 / out.firings,
            self_ns["model.parse"] / 1e9 / kb, chain.check(out))


def measure_layers(workload, seconds):
    """Per-layer metrics from one traced set-up and pass, plus scaling readings.

    The untraced passes that the tracing overhead is taken against alternate
    with timed `actrsim run` subprocesses.
    """
    import reference
    import tracing

    expected_cli = reference.published("success-cost-player3")
    checks, walls, clis = [], [], []
    deadline = time.perf_counter() + seconds / 2
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        wall, out = timed(workload.run_pass)
        walls.append(wall)
        checks += workload.check(out)
        cli_wall, ok = time_cli(expected_cli)
        clis.append(cli_wall)
        checks.append(("cli success-cost player 3", ok))
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        workload.setup()
        gc.collect()
        traced_wall, out = timed(workload.run_pass)
    checks += workload.check(out)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["cli_s"] = (min(clis), "s")

    small = chain_probe(workload.seed, SCALING_SMALL)
    full = chain_probe(workload.seed, SCALING_LARGE)
    checks += small[2] + full[2]
    metrics["engine.match_per_firing_small_s"] = (small[0], "s")
    metrics["engine.match_per_firing_s"] = (full[0], "s")
    metrics["engine.match_growth"] = (full[0] / small[0], "ratio")
    metrics["model.parse_per_kb_small_s"] = (small[1], "s/kB")
    metrics["model.parse_per_kb_s"] = (full[1], "s/kB")
    metrics["model.parse_growth"] = (full[1] / small[1], "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{workload.name}.spans.jsonl")
    return metrics, checks


def report(args, env, metrics, samples, checks, expected_names):
    failed = [label for label, ok in checks if not ok]
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        print(f"  sampled {name:26s} n={len(values)}, min {min(values):.6g}, "
              f"q1 {q1:.6g}, median {median:.6g}, q3 {q3:.6g} s")
    print(f"  {'error_rate':34s} {len(failed) / len(checks):.6g} "
          f"({len(failed)} of {len(checks)} checked outputs differ)")
    for label in failed[:20]:
        print(f"bench: mismatch: {label}", file=sys.stderr)
    unlisted = set(expected_names) ^ set(metrics)
    if unlisted:
        print(f"bench: metrics differ from BENCHMARK.json: {sorted(unlisted)}",
              file=sys.stderr)
    result = {
        "correct": not failed and not unlisted,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": env, "result": result,
                  "samples": samples}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def compare(old_path, new_path, spec) -> int:
    """Per workload and end-to-end metric: medians, quartiles, ratio, verdict."""
    def load(path):
        runs = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record["trace"] == 0:
                    runs.setdefault(record["workload"], []).append(record["result"])
        return runs

    old, new = load(old_path), load(new_path)
    regressions = 0
    for workload in sorted(set(old) | set(new)):
        print(f"{workload}: old n={len(old.get(workload, []))}, "
              f"new n={len(new.get(workload, []))}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [[r["metrics"][name]["value"] for r in runs.get(workload, [])
                      if name in r["metrics"]] for runs in (old, new)]
            if not all(sides):
                print(f"  {name:14s} missing on one side")
                continue
            (a1, a2, a3), (b1, b2, b3) = (quartiles(side) for side in sides)
            ratio = b2 / a2
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            verdict = "within bound" if worse <= metric["bound"] else "REGRESSION"
            regressions += worse > metric["bound"]
            print(f"  {name:14s} old {a2:.6g} [{a1:.6g}, {a3:.6g}]  "
                  f"new {b2:.6g} [{b1:.6g}, {b3:.6g}]  ratio {ratio:.4f}  "
                  f"{verdict} ({metric['better']} is better, bound {metric['bound']})")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("rps-tables", "rps-long", "chain-wide"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (SRC / "actrsim" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {SRC}; "
              "run from the root of an actrsim checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    # warm-up, and the recorded digests of the reference seed
    reference_run = workloads.WORKLOADS[args.workload](workloads.REFERENCE_SEED)
    checks = reference_run.check(reference_run.run_pass())
    env = environment()
    if args.trace:
        metrics, layer_checks = measure_layers(workload, args.seconds)
        samples = {}
        expected = [m["name"] for m in spec["per_layer"]]
    else:
        metrics, samples, layer_checks = measure(workload, args.seconds)
        expected = [m["name"] for m in spec["end_to_end"]]
    return report(args, env, metrics, samples, checks + layer_checks, expected)


if __name__ == "__main__":
    sys.exit(main())
