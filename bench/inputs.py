"""Seeded input generators for the benchmark workloads.

The same seed always gives the same inputs, and the simulator only ever
receives what these functions return. Generated names have a fixed width,
so the input size does not depend on the seed.
"""

import random

MOVES = ("rock", "paper", "scissors")


def move_stream(seed: int, count: int) -> list[str]:
    """`count` opponent moves drawn uniformly, for the `next-move` provider."""
    rng = random.Random(f"rps-long/{seed}")
    return [rng.choice(MOVES) for _ in range(count)]


def chain_states(seed: int, rules: int) -> tuple[list[str], list[str]]:
    """Distinct state and tag constants for a chain of `rules` rules.

    Rule r<k> tests state k and moves the goal to state k+1 with tag k+1, so
    there are rules + 1 of each.
    """
    rng = random.Random(f"chain-wide/{seed}")
    states = [f"s{n:06x}" for n in rng.sample(range(16**6), rules + 1)]
    tags = [f"t{n:06x}" for n in rng.sample(range(16**6), rules + 1)]
    return states, tags


def chain_model(seed: int, rules: int) -> str:
    """Model text of a `rules`-long chain on one buffer, in shuffled order.

    Each rule tests one distinct constant state and binds `=v` to the tag.
    Declaration order is a seeded permutation of the firing order, so a
    scan of the rules cannot stop early at the one that matches.
    """
    states, tags = chain_states(seed, rules)
    order = list(range(rules))
    random.Random(f"chain-wide/order/{seed}").shuffle(order)
    lines = [
        "; generated chain model",
        "(chunk-type link state tag)",
        f"(add-dm (c0 isa link state {states[0]} tag {tags[0]}))",
        "(goal-focus goal c0)",
    ]
    for k in order:
        lines.append(
            f"(p r{k}\n"
            f"   =goal> isa link state {states[k]} tag =v\n"
            f" ==>\n"
            f"   =goal> state {states[k + 1]} tag {tags[k + 1]})"
        )
    return "\n".join(lines) + "\n"
