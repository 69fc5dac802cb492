"""The match-select-apply cycle over buffers, rules, and the event queue.

``compile_model`` checks a model once and compiles it into a ``Program``: the
rules and initial state that its runs share. An ``Engine`` is one run of it.
A model that passes validation raises no structural error at run time; only
a provider that runs out of values, or gives one that cannot be hashed, does.

A cycle matches, the strategy selects one instantiation, and the winner fires
50 ms later, with nothing run in between: its buffers still hold what it
matched. Firing notifies the strategy, fires the rule's learning triggers,
draws every ``!bind!`` in text order, then modifies and clears buffers.
``run`` serves queued events in time order; a run stepped in parts equals one.

Times are exact. The clock counts integer milliseconds, every time a trace
line or a strategy's hook sees is a ``Fraction`` of seconds, and a limit is
floored to ticks exactly. A strategy whose class keeps the bundled tick log
(``ExactStrategy.record_application``) is not called per firing: the engine
appends (rule, selection tick) to its ``applied_log`` in the strategy's own
clock, whose rate it reads at each ``run`` call, as a caller may refine that
clock between calls. Any other strategy hears ``record_application`` in
seconds. A conflict set is a pure function of what the buffers
hold, so each Program memoizes it, keyed by every buffer's chunk, for at most
MATCH_MEMO_STATES states. As the key covers every buffer, a firing's next
state follows from its state, its instantiation and its !bind! draws: the
memo links each recurring firing to the state it leads to, keyed by its rule
and the values its !bind!s drew, so that the next match follows the link
instead of rebuilding the state's key. A link is written from a state to one
already in the memo, and followed only

- when the firing is the very instantiation the link recorded: one selected
  in an earlier state can fire later, beside an event queued next to it;
- within one run() call: a caller may change held or a chunk between calls.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .chunks import Chunk
from .errors import ModelSyntaxError, ProviderExhausted, UnhashableValue
from .model import ModelAST, validate_model
from .scheduler import EventQueue
from .strategies import (TICKS_PER_SECOND, ConflictResolutionStrategy, ExactStrategy,
                         refraction_prune)

FIRE_LATENCY_TICKS = 50  # 50 ms between selection and firing
MATCH_MEMO_STATES = 4096  # buffer states a Program's memo stores; it never evicts
MATCH_MEMO_LINKS = 64  # links one memoized state stores, however many values binds draw
_record = tuple.__new__  # a NamedTuple from a tuple of its fields, as in model.py


@lru_cache(maxsize=4096)  # 4,096 ticks 50 ms apart span 204 s of a run
def seconds(tick: int) -> Fraction:
    """The exact time of tick in seconds."""
    return Fraction(tick, TICKS_PER_SECOND)


class Instantiation(NamedTuple):
    """A rule plus the concrete bindings and buffer snapshot it matched."""

    rule: str
    source_index: int
    bindings: dict
    matched: tuple  # ((buffer, chunk, ((slot, value), ...)), ...)

    def identity(self):
        return (self.rule, self.matched)  # the snapshot holds every bound value


class TraceEntry(NamedTuple):
    time: Fraction
    rule: str
    bindings: dict
    identity: tuple


@lru_cache(maxsize=4096)  # sized like seconds(): a run's times are few and recur
def _time_text(n: int, d: int) -> str:
    """The time n / d as a trace prints it: n / d is the correctly rounded float."""
    return f"{n / d:.3f}"


def format_trace_entry(entry: TraceEntry) -> str:
    time, rule, bindings, _ = entry
    if not bindings:
        text = "-"
    elif len(bindings) == 1:
        (variable, value), = bindings.items()
        text = f"{variable}={value}"
    else:
        text = ",".join([f"{v}={value}" for v, value in sorted(bindings.items())])
    return f"{_time_text(*time.as_integer_ratio())}\t{rule}\t{text}"


def _flagged(pairs):
    """((slot, value, is_var), ...) of (slot, value) pairs; a validated value
    is a symbol, so a variable is one that starts with '='.

    Here and in _compile, loops build what comprehensions would: before Python
    3.12 a comprehension is a call of its own, and each model compiles anew.
    """
    flagged = []
    for slot, value in pairs:
        flagged.append((slot, value, value[0] == "="))
    return tuple(flagged)


def _compile(source_index, p, annotation):
    """The rule as its runs read it, built once per rule: (name, source_index,
    tests, binds, modifications, clearings, annotation).

    tests: ((buffer, type, ((slot, expected, is_var), ...)), ...);
    modifications: ((buffer, ((slot, value, is_var), ...)), ...); binds and
    clearings as in the Production; annotation is the rule's Annotation, or
    None.
    """
    name, tests, binds, modifications, clearings = p
    compiled_tests, compiled_modifications = [], []
    for buffer, ctype, slot_tests in tests:
        compiled_tests.append((buffer, ctype, _flagged(slot_tests)))
    for buffer, updates in modifications:
        compiled_modifications.append((buffer, _flagged(updates)))
    return (name, source_index, tuple(compiled_tests), binds,
            tuple(compiled_modifications), clearings, annotation)


def _index(productions):
    """The compiled rules grouped by the constants of their first buffer test,
    as Rete's alpha memories (Forgy 1982) group them.

    Returns (index, untested). index lists ((buffer, type, slots), table)
    pairs, one per distinct first test shape, where slots names the slots
    that test compares with constants and table maps the tuple of those
    constants to the rules that expect them; untested lists the rules
    without tests. Every list keeps declaration order.
    """
    index: dict = {}
    untested = []
    for rule in productions:
        tests = rule[2]
        if not tests:
            untested.append(rule)
            continue
        buffer, ctype, slot_tests = tests[0]
        slots, values = [], []
        for slot, value, is_var in slot_tests:
            if not is_var:
                slots.append(slot)
                values.append(value)
        table = index.setdefault((buffer, ctype, tuple(slots)), {})
        table.setdefault(tuple(values), []).append(rule)
    return tuple(index.items()), tuple(untested)


class Program(NamedTuple):
    """A checked, compiled model: all that its runs share.

    providers names each !bind! provider once; index and untested: see _index.
    memo, the one thing runs write, maps a state of every buffer, in
    buffer_inits order, to its entry, the pair (conflict set, links): links
    maps a firing's key (its rule's source_index and !bind! draws) to (the
    Instantiation that fired, the entry of the state reached). Being a field,
    memo takes part when two Programs are compared.
    """

    rules: tuple
    index: tuple
    untested: tuple
    providers: tuple[str, ...]
    chunk_specs: tuple  # the initial chunks, ChunkSpec, ...
    buffer_inits: tuple[tuple[str, str], ...]
    memo: dict

    def check_providers(self, names) -> None:
        """Raise ProviderExhausted unless every provider is among names."""
        missing = [provider for provider in self.providers if provider not in names]
        if missing:
            raise ProviderExhausted(f"no provider named {missing[0]!r} registered")


def compile_model(model: ModelAST | Program) -> Program:
    """The model checked (raising ModelSyntaxError) and compiled; a Program as is."""
    if isinstance(model, Program):
        return model
    diagnostics = validate_model(model)
    if diagnostics:
        raise ModelSyntaxError("; ".join(diagnostics))
    rules = tuple([_compile(i, p, model.annotations.get(p.name))
                   for i, p in enumerate(model.productions)])
    providers = dict.fromkeys(provider for p in model.productions for _, provider in p.binds)
    return Program(rules, *_index(rules), tuple(providers),
                   model.initial_chunks, model.buffer_inits, {})


class Engine:
    """One run of a Program, or of a ModelAST that compile_model compiles first.

    held maps each buffer to its chunk's name (None once cleared), and
    chunks each chunk's name to a Chunk with this run's slot values.
    """

    def __init__(self, model, strategy, providers=None, refraction=False):
        self.program = program = compile_model(model)
        self.memo = program.memo
        self.rules = program.rules
        self.providers = dict(providers or {})
        program.check_providers(self.providers)
        self.strategy = strategy
        # a strategy hears only the triggers its class handles: the base's are no-ops
        kind, base = type(strategy), ConflictResolutionStrategy
        self._hears_reward = getattr(kind, "trigger_reward", None) is not base.trigger_reward
        self._hears_outcome = getattr(kind, "trigger_outcome", None) is not base.trigger_outcome
        self._logs_ticks = (getattr(kind, "record_application", None)
                            is ExactStrategy.record_application)
        self._tick_factor = 0  # read at each run() call
        self._entry = self._fired = self._link = None  # see find_instantiations
        self.refraction = refraction
        self.refraction_history: set = set()
        self.held = dict(program.buffer_inits)
        self.chunks = {spec.name: Chunk(spec.name, spec.type, dict(spec.slot_values))
                       for spec in program.chunk_specs}
        self.queue = EventQueue()
        self.trace: list[TraceEntry] = []
        self.queue.schedule(0, 0, None)  # the first match: nothing to apply

    def now(self) -> Fraction:
        """The time of the last processed event in exact seconds: the queue's clock."""
        return seconds(self.queue.now())

    # -- matching ---------------------------------------------------------

    def find_instantiations(self) -> tuple[Instantiation, ...]:
        """One instantiation per rule whose every buffer test succeeds, in
        declaration order: the Program's memo's tuple for this buffer state.

        _entry is the memo entry this returned last, None when unknown;
        _fired the Instantiation fired since, and _link its key in _entry's
        links.
        """
        entry, fired, self._fired = self._entry, self._fired, None
        if fired is not None and entry is not None:
            link = entry[1].get(self._link)
            if link is not None and link[0] is fired:
                self._entry = entry = link[1]
                return entry[0]
        chunks, memo = self.chunks, self.memo
        state = []
        for name in self.held.values():  # in buffer_inits order
            chunk = name and chunks[name]  # None: a cleared buffer
            state.append(chunk and (name, tuple(chunk.slot_values.items())))  # name fixes type
        key = tuple(state)
        found = memo.get(key)
        if found is None:  # past the bound, an entry that is not stored
            found = (tuple(self._match()), {})
            if len(memo) < MATCH_MEMO_STATES:
                memo[key] = found
        elif fired is not None and entry is not None and len(entry[1]) < MATCH_MEMO_LINKS:
            entry[1][self._link] = (fired, found)  # a firing led to a recurring state
        self._entry = found
        return found[0]

    def _match(self) -> list[Instantiation]:
        held, chunks, program = self.held, self.chunks, self.program
        groups = [program.untested] if program.untested else []
        for (buffer, ctype, slots), table in program.index:
            chunk_name = held[buffer]
            if chunk_name is None:  # a cleared buffer
                continue
            chunk = chunks[chunk_name]
            if chunk.type != ctype:
                continue
            # an unset slot reads None, which equals no constant
            rules = table.get(tuple(map(chunk.slot_values.get, slots)))
            if rules:
                groups.append(rules)
        if len(groups) == 1:
            survivors = groups[0]
        else:  # back into declaration order
            survivors = sorted(chain.from_iterable(groups), key=itemgetter(1))
        out = []
        for name, source_index, tests, _, _, _, _ in survivors:
            bindings: dict = {}
            matched = []
            for buffer, ctype, slot_tests in tests:
                chunk_name = held[buffer]
                if chunk_name is None:  # a cleared buffer
                    break
                chunk = chunks[chunk_name]
                if chunk.type != ctype:
                    break
                values = chunk.slot_values
                snapshot = []
                for slot, expected, is_var in slot_tests:
                    actual = values.get(slot)  # None: unset, matches nothing, not even nil
                    if is_var:
                        if actual is None or bindings.setdefault(expected, actual) != actual:
                            break
                    elif actual != expected:
                        break
                    snapshot.append((slot, actual))
                else:
                    matched.append((buffer, chunk_name, tuple(snapshot)))
                    continue
                break
            else:
                out.append(Instantiation(name, source_index, bindings, tuple(matched)))
        return out

    # -- application --------------------------------------------------------

    def _apply(self, inst: Instantiation, tick: int):
        """Fire inst at tick, FIRE_LATENCY_TICKS after its selection.

        Not atomic: a !bind! that runs out raises ProviderExhausted, and one
        whose value cannot be hashed UnhashableValue, after the strategy (its
        log and triggers) and the refraction history were updated, but before
        any modification or clearing.
        """
        rule, source_index, bindings, matched = inst
        identity = (rule, matched)  # Instantiation.identity()
        now = seconds(tick)
        strategy, factor = self.strategy, self._tick_factor
        if factor:
            strategy.applied_log.append((rule, (tick - FIRE_LATENCY_TICKS) * factor))
        else:
            strategy.record_application(rule, seconds(tick - FIRE_LATENCY_TICKS))
        _, _, _, binds, modifications, clearings, annotation = self.rules[source_index]
        if annotation is not None:
            reward, success, failure = annotation
            if reward is not None and self._hears_reward:
                strategy.trigger_reward(reward, now)
            if self._hears_outcome:
                if success:
                    strategy.trigger_outcome("success", now)
                if failure:
                    strategy.trigger_outcome("failure", now)
        if self.refraction:
            self.refraction_history.add(identity)
        env = dict(bindings)
        link = source_index  # the firing's key in the memo's links
        for variable, provider in binds:
            try:
                env[variable] = value = next(self.providers[provider])
            except StopIteration:
                raise ProviderExhausted(f"provider {provider!r} has no next value") from None
            try:
                hash(value)  # a slot value keys the memo and the refraction history
            except TypeError:
                raise UnhashableValue(
                    f"provider {provider!r} gave {value!r}, which cannot be hashed") from None
            link = (link, value)
        held, chunks = self.held, self.chunks
        for buffer, updates in modifications:
            # validation proved the buffer holds a chunk with these slots
            values = chunks[held[buffer]].slot_values
            for slot, value, is_var in updates:
                values[slot] = env[value] if is_var else value
        for buffer in clearings:
            held[buffer] = None  # the chunk stays in chunks
        self.trace.append(_record(TraceEntry, (now, rule, env, identity)))
        self._fired, self._link = inst, link

    # -- driver --------------------------------------------------------------

    def run(self, t_limit) -> list[TraceEntry]:
        """Fire until nothing matches or the next firing would pass t_limit.

        t_limit is any rational or float number of seconds, ±inf included (a
        NaN is a ValueError, anything else a TypeError). The queue holds the
        pending firing only between calls, and an event queued beside it is
        served in time order.
        """
        try:
            n, d = t_limit.as_integer_ratio()
        except OverflowError:  # ±inf compares with every tick as it is
            limit = t_limit
        except ValueError:
            raise ValueError(f"cannot run to the limit {t_limit!r}") from None
        except AttributeError:
            raise TypeError(f"the limit {t_limit!r} is not a rational or float number") from None
        else:
            limit = n * TICKS_PER_SECOND // d  # the exact floor, as d > 0
        self._entry = None  # held or a chunk may have changed since the last call
        # and a caller may have refined the strategy's clock: its ticks per engine
        # tick, or 0 for a strategy that hears record_application
        self._tick_factor = self.strategy.ticks // TICKS_PER_SECOND if self._logs_ticks else 0
        queue = self.queue
        apply, find, select = self._apply, self.find_instantiations, self.strategy.select
        refraction, history = self.refraction, self.refraction_history
        while True:  # one pass per event popped, in the queue's order
            tick = queue.peek_time()
            if tick is None or tick > limit:
                return self.trace
            inst = queue.pop_next().payload
            stop = queue.peek_time()  # it pops before a firing due at or after it
            stop = limit if stop is None else min(limit, stop - 1)
            try:
                while True:
                    if inst is not None:
                        apply(inst, tick)
                    candidates = find()
                    if refraction:
                        candidates = refraction_prune(candidates, history)
                    inst = select(candidates)
                    if inst is None:  # nothing matches: this event's firings end
                        break
                    if tick + FIRE_LATENCY_TICKS > stop:
                        queue.schedule(tick + FIRE_LATENCY_TICKS, 0, inst)
                        break
                    tick += FIRE_LATENCY_TICKS
            finally:  # also when a firing raises; never past a queued event, so it cannot raise
                queue.advance(tick)
