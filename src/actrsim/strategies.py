"""Conflict-resolution strategies: utility learning, selection, refraction.

The engine logs every rule application with its selection time, and an
annotated rule fires a trigger when applied. A trigger updates each logged
application in log order, the triggering rule's own included, then rescores
each distinct rule it touched once and empties the log; a round without a
trigger leaves its entries for the next one. A rule no trigger touched reads
its strategy's initial values.

The bundled strategies learn on a clock of their own: `ticks` per second,
the engine's TICKS_PER_SECOND to start. Their applied log holds (rule, tick)
pairs, which an Engine appends itself, and their efforts are tick counts. The
hooks take rational seconds; a time between two ticks refines the clock to
the exact lcm and rescales the ticks stored. The base class logs and hears
seconds, so a strategy built on it sees times as Fractions.

Reinforcement and success-cost are exact: a utility is a pair of ints n / d
(d > 0), learned without rounding, and select() returns what select_winner
returns on the exact utilities: max over (utility, sign * source_index), with
sign 1 at last-declared and -1 at first-declared, so that of equal keys the
first candidate wins. The float key n / d is correctly rounded and therefore
monotone: it orders unequal keys, and equal keys compare exactly. A lone
candidate wins unscored. At alpha = a/b with integer rewards on a
millisecond clock, d divides b**k * 1000 after k reinforcement updates.

Random-cost draws one uniform r for every candidate of every cycle, a lone
one too, in candidate order, and takes u = p * G - draw_random_cost(theta, r)
in floats, with theta = efforts / successes and p = P correctly rounded. It
keeps the max of (u, sign * source_index) as max does; its score() returns
the draws.

alpha, goal values, rewards and times are rationals: ints or Fractions; a
float alpha or goal value is a TypeError. Each strategy checks its own
parameters when it is built.
"""

import math
import random
from fractions import Fraction
from math import gcd

FIRST_DECLARED = "first-declared"
LAST_DECLARED = "last-declared"
TICKS_PER_SECOND = 1000  # the engine's clock, and each strategy's to start
TIEBREAK_POLICIES = (FIRST_DECLARED, LAST_DECLARED)
_OUTCOME_COUNTER = {"success": 0, "failure": 1}  # the counter each trigger kind bumps


# -- update math -------------------------------------------------------------

def _key(n, d):
    """n / d (d > 0) as a correctly rounded float; +-inf beyond float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _about(value):
    """A rational beyond float range in bounded text: 1e+400, -3.33e+998."""
    n, d = value.as_integer_ratio()
    exponent = math.log10(abs(n)) - math.log10(d)  # math.log10 reads an int of any size
    whole = math.floor(exponent)
    mantissa = round(10 ** (exponent - whole), 2)
    if mantissa >= 10:  # 9.995 and up
        mantissa, whole = mantissa / 10, whole + 1
    return f"{'-' if n < 0 else ''}{mantissa:g}e+{whole}"


def reinforcement_update(utility, alpha, reward):
    """One learning step, U + alpha (R - U): the utility moved toward the reward."""
    return Fraction(utility + alpha * (reward - utility))


def sc_recompute(successes, failures, efforts, goal_value):
    """(P, C, U) from raw counters: P = s/(s+f), C = efforts/(s+f), U = P*G - C."""
    n = successes + failures
    en, ed = efforts.as_integer_ratio()
    gn, gd = goal_value.as_integer_ratio()
    return (Fraction(successes, n), Fraction(en, ed * n),
            Fraction(successes * gn * ed - en * gd, n * gd * ed))


def draw_random_cost(theta, r):
    """Exponential cost draw with mean theta from a uniform r in [0, 1)."""
    return -theta * math.log(1 - r)


def refraction_prune(candidates, history):
    """Drop every instantiation whose identity has already been applied."""
    return [c for c in candidates if c.identity() not in history]


def select_winner(candidates, utilities, tiebreak):
    """Highest-utility candidate; declaration order decides exact ties.

    The order of `candidates` decides only between candidates that share a
    source_index, and then the first wins. `tiebreak` is one of
    TIEBREAK_POLICIES, as a strategy's constructor checks.
    """
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    sign = 1 if tiebreak == LAST_DECLARED else -1
    return max(candidates, key=lambda c: (utilities[c.rule], sign * c.source_index))


# -- strategies ----------------------------------------------------------------

class ConflictResolutionStrategy:
    """Scores a conflict set and reacts to applications and triggers.

    Subclasses implement utility(), which the default score() reads for
    each candidate; the reward/outcome hooks are no-ops by default so
    annotations a strategy does not use are simply ignored: an Engine calls
    only the hooks its strategy's class overrides.
    """

    name = "base"
    default_tiebreak = FIRST_DECLARED

    def __init__(self, tiebreak=None):
        self.tiebreak = tiebreak or self.default_tiebreak
        if self.tiebreak not in TIEBREAK_POLICIES:
            raise ValueError(f"unknown tie-break policy {self.tiebreak!r}")
        self._sign = 1 if self.tiebreak == LAST_DECLARED else -1  # of select_winner's key
        self.applied_log: list = []  # (rule, selection time) pairs

    def score(self, candidates) -> dict:
        return {c.rule: self.utility(c.rule) for c in candidates}

    def select(self, candidates):
        return select_winner(candidates, self.score(candidates), self.tiebreak)

    def record_application(self, rule, selection_time):
        self.applied_log.append((rule, selection_time))

    def trigger_reward(self, amount, now):
        pass

    def trigger_outcome(self, kind, now):
        pass

    def utility(self, rule):
        raise NotImplementedError


class ExactStrategy(ConflictResolutionStrategy):
    """A strategy that learns exactly on its tick clock and selects on float keys.

    _tick turns a time into ticks, refining the clock first where the time
    falls between two ticks. _states maps a rule to (key, n, d), its utility
    n / d (d > 0) and key = _key(n, d); a rule without an entry reads
    _unkeyed(rule).
    """

    def __init__(self, tiebreak=None):
        super().__init__(tiebreak)
        self.ticks = TICKS_PER_SECOND

    def _tick(self, time):
        """time, in rational seconds, as a whole count of ticks."""
        n, d = time.as_integer_ratio()
        if self.ticks % d:
            self._refine(d // gcd(self.ticks, d))
        return n * self.ticks // d

    def _refine(self, m):
        """Make each tick m ticks."""
        self.ticks *= m
        self.applied_log[:] = [(rule, tick * m) for rule, tick in self.applied_log]

    def record_application(self, rule, selection_time):
        self.applied_log.append((rule, self._tick(selection_time)))

    def _unkeyed(self, rule):
        return self._initial_state

    def select(self, candidates):
        if len(candidates) < 2:
            return candidates[0] if candidates else None
        get, unkeyed, sign = self._states.get, self._unkeyed, self._sign
        winner = None
        for candidate in candidates:
            state = get(candidate.rule) or unkeyed(candidate.rule)
            if winner is None or state[0] > best:  # a greater key: a greater utility
                winner, best, held = candidate, state[0], state
            elif state[0] == best:  # n/d > wn/wd iff n wd > wn d, as d, wd > 0
                _, n, d = state
                _, wn, wd = held
                cross = n * wd - wn * d
                if cross > 0 or cross == 0 and (
                        sign * candidate.source_index > sign * winner.source_index):
                    winner, held = candidate, state
        return winner

    def utility(self, rule):
        _, n, d = self._states.get(rule) or self._unkeyed(rule)
        return Fraction(n, d)


class ReinforcementUtility(ExactStrategy):
    """Reward-propagating utility learning.

    A triggered reward of size R at time t updates every logged application
    in chronological order with the time-discounted reward R - (t - t_sel),
    then empties the log. Utilities start at 0 and stay there for rules that
    never receive a reward.

    _learned maps each rewarded rule to (n, c, p), its utility n / (c p):
    c is the lcm of the denominators ad * ticks of the rewards an / ad it
    learned from, and p = b**k after k updates at alpha = a / b. An update is
    then products of a small int and a large one, with no large division; a
    rule's key is computed when select() first compares it.
    """

    name = "reinforcement"
    default_tiebreak = LAST_DECLARED

    def __init__(self, alpha=Fraction(1, 5), tiebreak=None):
        super().__init__(tiebreak)
        if not isinstance(alpha, (int, Fraction)):
            raise TypeError(f"alpha must be an int or a Fraction, not {alpha!r}")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._alpha = alpha.as_integer_ratio()
        self._learned: dict = {}
        self._states: dict = {}  # the keyed states of _learned, rule by rule
        self._initial_state = (0.0, 0, 1)

    @property
    def utilities(self):
        """Each rewarded rule's exact utility."""
        return {rule: Fraction(n, c * p) for rule, (n, c, p) in self._learned.items()}

    def trigger_reward(self, amount, now):
        entries = self.applied_log
        if not entries:
            return
        now = self._tick(now)
        an, ad = amount.as_integer_ratio()
        a, b = self._alpha
        # each entry's reward is r / rd, r = an ticks - ad (now - selected)
        rd = ad * self.ticks
        base, slope, keep = a * (an * self.ticks - ad * now), a * ad, b - a
        learned, unkey, fresh = self._learned, self._states.pop, (0, rd, 1)
        for rule, selected in entries:
            ar = base + slope * selected  # a r
            n, c, p = learned.get(rule, fresh)
            if c != rd:  # U = n / (c p) and R = r / rd over one c
                if c % rd:
                    m = rd // gcd(c, rd)
                    n, c = n * m, c * m
                ar *= c // rd
            # (1 - a/b) U + (a/b) R = ((b - a) n + a r p) / (c p b)
            learned[rule] = keep * n + ar * p, c, p * b
            unkey(rule, None)
        entries.clear()

    def _unkeyed(self, rule):
        learned = self._learned.get(rule)
        if learned is None:
            return self._initial_state
        n, c, p = learned
        d = c * p
        state = self._states[rule] = _key(n, d), n, d
        return state


class SuccessCostUtility(ExactStrategy):
    """Success-probability / average-cost utility learning.

    Counters start at one success, no failures, and 0.05 s of effort (the
    selection time of one firing). A success or failure trigger at time t
    bumps the matching counter once per logged application and adds each
    application's t - t_sel to its rule's efforts, then rescores each rule
    it touched once. A rule no trigger has touched has no state of its own:
    it reads the initial counters and the state they give, computed once.
    """

    name = "success-cost"
    default_tiebreak = FIRST_DECLARED

    INITIAL_COUNTERS = (1, 0, Fraction(1, 20))  # successes, failures, efforts in seconds

    def __init__(self, goal_value=Fraction(20), tiebreak=None):
        super().__init__(tiebreak)
        if not isinstance(goal_value, (int, Fraction)):
            raise TypeError(f"goal_value must be an int or a Fraction, not {goal_value!r}")
        self.goal_value = goal_value
        self._goal = goal_value.as_integer_ratio()
        self._counters: dict[str, list] = {}  # rule -> [s, f, efforts in ticks]
        self._states: dict = {}  # rule -> _state of its counters
        self._initial_state = self._state(*self._initial_counters())

    def _initial_counters(self):
        s, f, efforts = self.INITIAL_COUNTERS
        return [s, f, self._tick(efforts)]

    def _refine(self, m):
        super()._refine(m)
        for entry in self._counters.values():
            entry[2] *= m

    def counters(self, rule):
        s, f, efforts = self._counters.get(rule) or self._initial_counters()
        return s, f, Fraction(efforts, self.ticks)

    def trigger_outcome(self, kind, now):
        index = _OUTCOME_COUNTER[kind]
        entries = self.applied_log
        if not entries:
            return
        now = self._tick(now)
        counters, touched = self._counters, {}  # rule -> its counters
        for rule, selected in entries:
            entry = counters.get(rule)
            if entry is None:
                entry = counters[rule] = self._initial_counters()
            touched[rule] = entry
            entry[index] += 1
            entry[2] += now - selected
        states, state = self._states, self._state
        for rule, entry in touched.items():  # each distinct rule rescored once
            states[rule] = state(*entry)
        entries.clear()

    def _state(self, s, f, efforts):
        """What select() and utility() read of a rule with these counters: U's key and pair."""
        gn, gd = self._goal
        n, d = s * gn * self.ticks - efforts * gd, (s + f) * gd * self.ticks
        return _key(n, d), n, d

    def success_probability(self, rule):
        s, f, _ = self._counters.get(rule, self.INITIAL_COUNTERS)
        return Fraction(s, s + f)


class RandomCostUtility(SuccessCostUtility):
    """Success/cost learning with per-cycle random estimated costs.

    Shares the success/failure/effort counters but replaces the average cost
    with an exponential draw around the expected cost theta = efforts /
    successes, recomputed for every conflict-set member on every conflict-
    resolution cycle. The reported utility of a rule is the one from its most
    recent draw. A trigger stores only the float theta and P of each rule it
    touched; a rule no trigger has touched draws with the initial ones.
    """

    name = "random-cost"
    default_tiebreak = FIRST_DECLARED

    def __init__(self, goal_value=Fraction(20), rng=None, seed=0, tiebreak=None):
        super().__init__(goal_value, tiebreak)
        self.rng = rng if rng is not None else random.Random(seed)
        self._last_utility: dict[str, float] = {}
        try:
            self._goal_float = float(goal_value)
        except OverflowError:
            raise ValueError(
                f"goal value about {_about(goal_value)} is beyond float range") from None

    def _state(self, s, f, efforts):
        """What select() reads of a rule with these counters: float theta and P."""
        return efforts / (self.ticks * s), s / (s + f)

    def select(self, candidates):
        """Draw each candidate's utility and keep the best.

        In candidate order, a lone candidate drawing too: the draws are part
        of the seeded output. Ties go by declaration order, as in
        select_winner.
        """
        states, initial, goal = self._states, self._initial_state, self._goal_float
        last_utility, draw, log, sign = self._last_utility, self.rng.random, math.log, self._sign
        winner = best = None
        for candidate in candidates:
            rule = candidate.rule
            theta, p = states.get(rule, initial)
            # p * G - draw_random_cost(theta, r), operation for operation
            u = last_utility[rule] = p * goal - -theta * log(1 - draw())
            # max() on select_winner's key (u, sign * source_index)
            if winner is None or u > best or u == best and (
                    sign * candidate.source_index > sign * winner.source_index):
                winner, best = candidate, u
        return winner

    def score(self, candidates):
        """Draw each candidate's utility by select() and return the draws by rule."""
        self.select(candidates)
        return {c.rule: self._last_utility[c.rule] for c in candidates}

    def utility(self, rule):
        if rule in self._last_utility:
            return self._last_utility[rule]
        return float(self.success_probability(rule) * self.goal_value)


STRATEGIES = {
    cls.name: cls
    for cls in (ReinforcementUtility, SuccessCostUtility, RandomCostUtility)
}
