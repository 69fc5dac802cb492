"""Independent references that every benchmark output is checked against.

Nothing here calls the simulator. The published tables are the paper's
3-decimal results, stored as the CSV the harness writes. The random-cost
targets and tolerances are those of the acceptance suite. The replays
recompute learning state straight from a formatted firing trace, in the
style of `tests/oracle.py` but with their own arithmetic. `digests.json`
holds the sha256 of every output recorded at the commit that added the
benchmark; the ROADMAP requires reports and traces to stay byte-identical,
so they do not change.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
LATENCY = Fraction(1, 20)

# per opponent: mean utilities (U_r, U_p, U_s) and mean wins over 50 runs
RANDOM_COST_TARGETS = {
    1: ((15.610, 19.893, 9.870), 13.94),
    2: ((9.800, 18.910, 10.275), 8.46),
    3: ((13.525, 10.267, 10.210), 8.06),
}
UTILITY_TOLERANCE = 0.5
WINS_TOLERANCE = 1.0

# the bundled model's annotations, as its header comment states them:
# win rules reward 2 and mark success, defeat rules reward 0 and mark failure
BEATS = {"rock": "scissors", "paper": "rock", "scissors": "paper"}
GOAL_VALUE = Fraction(20)
ALPHA = Fraction(1, 5)


def published(name: str) -> str:
    return (HERE / "published" / f"{name}.csv").read_text(encoding="utf-8")


def recorded_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def random_cost_ok(csv_text: str, player: int, runs: int) -> bool:
    """Row count, and the avg row's means within the acceptance tolerances."""
    lines = csv_text.splitlines()
    if len(lines) != runs + 2 or not lines[-1].startswith("avg,"):
        return False
    fields = lines[-1].split(",")[1:]
    utilities, wins = [float(v) for v in fields[:3]], float(fields[3])
    targets, target_wins = RANDOM_COST_TARGETS[player]
    return (
        all(abs(u - t) <= UTILITY_TOLERANCE for u, t in zip(utilities, targets))
        and abs(wins - target_wins) <= WINS_TOLERANCE
    )


# -- firing traces ---------------------------------------------------------------

def ms_text(ms: int) -> str:
    """Seconds with three decimals, from whole milliseconds."""
    return f"{ms // 1000}.{ms % 1000:03d}"


def parse_trace(text: str) -> list[tuple[Fraction, str, dict]]:
    """(fire time, rule, bindings) per line of `run\\ttime\\trule\\tbindings`."""
    entries = []
    for line in text.splitlines():
        _, time, rule, bindings = line.split("\t")
        env = {}
        if bindings != "-":
            for item in bindings.split(","):
                variable, value = item[1:].split("=", 1)
                env["=" + variable] = value
        entries.append((Fraction(time), rule, env))
    return entries


def game_ok(entries, moves) -> bool:
    """Rounds alternate a play rule and the outcome rule its pair implies.

    Round i plays at 0.05·(2i+1) s with the i-th opponent move bound to =x,
    then fires detect-<outcome>-<me> at 0.05·(2i+2) s.
    """
    if len(entries) != 2 * len(moves):
        return False
    for i, opponent in enumerate(moves):
        (t_play, play, env), (t_detect, detect, _) = entries[2 * i:2 * i + 2]
        me = play.removeprefix("play-")
        if me not in BEATS or env.get("=x") != opponent:
            return False
        outcome = "draw" if me == opponent else "win" if BEATS[me] == opponent else "defeat"
        if (detect != f"detect-{outcome}-{me}" or t_play != LATENCY * (2 * i + 1)
                or t_detect != LATENCY * (2 * i + 2)):
            return False
    return True


def _reward(rule):
    if rule.startswith("detect-win-"):
        return Fraction(2)
    if rule.startswith("detect-defeat-"):
        return Fraction(0)
    return None


def replay_reinforcement(entries) -> dict:
    """Utility per rule: U += α·((R − (t − t_sel)) − U) over the log at each reward."""
    utilities, log = {}, []
    for time, rule, _ in entries:
        log.append((rule, time - LATENCY))
        reward = _reward(rule)
        if reward is None:
            continue
        for logged, selected in log:
            u = utilities.get(logged, Fraction(0))
            utilities[logged] = u + ALPHA * (reward - (time - selected) - u)
        log.clear()
    return utilities


def replay_success_cost(entries) -> dict:
    """[successes, failures, efforts] per rule, starting from [1, 0, 0.05]."""
    counters, log = {}, []
    for time, rule, _ in entries:
        log.append((rule, time - LATENCY))
        if rule.startswith("detect-win-"):
            index = 0
        elif rule.startswith("detect-defeat-"):
            index = 1
        else:
            continue
        for logged, selected in log:
            counter = counters.setdefault(logged, [1, 0, LATENCY])
            counter[index] += 1
            counter[2] += time - selected
        log.clear()
    return counters


def success_cost_utility(successes, failures, efforts) -> Fraction:
    n = successes + failures
    return Fraction(successes, n) * GOAL_VALUE - efforts / n


def chain_trace(tags) -> str:
    """Rule r<k> fires at 0.05·(k+1) s with =v bound to tag k, then the run halts."""
    lines = [
        f"1\t{ms_text(50 * (k + 1))}\tr{k}\t=v={tag}"
        for k, tag in enumerate(tags[:-1])
    ]
    return "\n".join(lines) + "\n"
