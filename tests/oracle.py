"""Straight-line reference paths for the tokenizer, matcher and strategies.

`char_tokenize` is the model tokenizer written one character at a time,
for differential tests of the regular-expression tokenizer.

`linear_scan` matches the uncompiled rules of a `ModelAST` against an
engine's `held` and `chunks` dicts, one rule and one slot test at a time,
for differential tests of the engine's indexed matcher.

The replay oracles recompute expected subsymbolic state directly from a
firing trace and the rule annotations, without the engine, queue, or
strategy classes, so engine runs can be checked against an independent
path. Selection always precedes firing by exactly 0.05 s, so selection
times are recovered from fire times.
"""

from fractions import Fraction

from actrsim.engine import Instantiation
from actrsim.model import _Token, is_variable
from actrsim.strategies import reinforcement_update, sc_recompute

LATENCY = Fraction(1, 20)


def char_tokenize(text: str):
    """The tokens of model text, read one character at a time."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    start = None  # [text, line, column] of the atom being read

    def flush():
        nonlocal start
        if start is not None:
            tokens.append(_Token(*start))
            start = None

    while i < n:
        ch = text[i]
        if ch == ";":
            flush()
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            flush()
            tokens.append(_Token(ch, line, col))
        elif ch in " \t\r\n":
            flush()
        elif start is None:
            start = [ch, line, col]
        else:
            start[0] += ch
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1
        i += 1
    flush()
    return tokens


def linear_scan(engine, productions):
    """One instantiation per rule whose every buffer test succeeds."""
    out = []
    for index, prod in enumerate(productions):  # declaration order is position
        bindings: dict = {}
        matched = []
        for test in prod.tests:
            chunk_name = engine.held[test.buffer]
            if chunk_name is None:
                break
            chunk = engine.chunks[chunk_name]
            if chunk.type != test.type:
                break
            snapshot = []
            for slot, expected in test.slot_tests:
                actual = chunk.slot_values.get(slot)
                if actual is None:  # unset slots match nothing, not even nil
                    break
                if is_variable(expected):
                    if bindings.setdefault(expected, actual) != actual:
                        break
                elif expected != actual:
                    break
                snapshot.append((slot, actual))
            else:
                matched.append((test.buffer, chunk_name, tuple(snapshot)))
                continue
            break
        else:
            out.append(
                Instantiation(prod.name, index, bindings, tuple(matched))
            )
    return out


def replay_reinforcement(trace, annotations, alpha=Fraction(1, 5)):
    """Expected utility table after replaying the fired-rule sequence."""
    utilities: dict = {}
    log: list = []
    for entry in trace:
        log.append((entry.rule, entry.time - LATENCY))
        ann = annotations.get(entry.rule)
        if ann is not None and ann.reward is not None:
            for rule, selected in log:
                reward = ann.reward - (entry.time - selected)
                utilities[rule] = reinforcement_update(
                    utilities.get(rule, Fraction(0)), alpha, reward
                )
            log.clear()
    return utilities


def replay_success_cost(trace, annotations):
    """Expected (successes, failures, efforts) per rule after the trace."""
    counters: dict = {}
    log: list = []
    for entry in trace:
        log.append((entry.rule, entry.time - LATENCY))
        ann = annotations.get(entry.rule)
        if ann is None or not (ann.success or ann.failure):
            continue
        index = 0 if ann.success else 1
        for rule, selected in log:
            counter = counters.setdefault(rule, [1, 0, Fraction(1, 20)])
            counter[index] += 1
            counter[2] += entry.time - selected
        log.clear()
    return {rule: tuple(counter) for rule, counter in counters.items()}


def expected_sc_utilities(counters, goal_value=Fraction(20)):
    return {
        rule: sc_recompute(s, f, e, goal_value)[2]
        for rule, (s, f, e) in counters.items()
    }
