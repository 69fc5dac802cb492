"""Straight-line reference paths for the reader, matcher and strategies.

`char_tokenize` is the model tokenizer written one character at a time: it
gives each token its line and column as it reads, where `parse_model` reads
plain strings and recovers a position only for the token an error names.
Tests compare its token texts with the tokenizer's, and the positions it
gives with those of `parse_model`'s errors.

`reference_forms` groups those positioned tokens into positioned lists, as
the reader did while every token carried its position; it raises the same
errors as `parse_model` for unbalanced text, at positions of its own.

`reference_read` is the model reader as it stood before every slot list
was read by one function, kept verbatim (three slot-pair loops, and a
nested list placed at its first token) for differential tests of
`parse_model`. It reads the forms of `reference_forms`. It still makes the
semantic checks that reader has since left to `validate_model` (a rule
declared twice, an unbound variable, ...), and raises a plain
`ModelSyntaxError` for each. It emits the AST as it stands now: a rule's
binds in text order, its modifications, its clearings. `reference_parse`
runs `char_tokenize`, `reference_forms` and `reference_read` in turn.

`reference_validate` is `validate_model` as it stood before it checked
every symbol in one scan of their join and read each rule's tests in one
loop, kept verbatim for differential tests of the diagnostics.

`linear_scan` matches the uncompiled rules of a `ModelAST` against an
engine's `held` and `chunks` dicts, one rule and one slot test at a time,
for differential tests of the engine's indexed matcher.

`textbook_reinforcement` and `textbook_success_cost` are the learning
formulas as the paper states them, U + alpha (R - (t - t_sel) - U) and
P G - C from the counters, written out here rather than imported, so that a
rewrite of the strategies' arithmetic is checked by arithmetic of its own.
Every oracle below learns through these two.

The replay oracles recompute expected subsymbolic state directly from a
firing trace and the rule annotations, without the engine, queue, or
strategy classes, so engine runs can be checked against an independent
path. Selection always precedes firing by exactly 0.05 s, so selection
times are recovered from fire times.

`ReferenceReinforcement` is reinforcement learning on the textbook formula.
`ReferenceSuccessCost` and `ReferenceRandomCost` are the success-cost and
random-cost strategies as they stood before each kept only the learning
state it reads (a counter entry made on first read, and an exact (P, C, U)
recomputed once per logged application) for differential tests of the
strategies.

`reference_run` is a whole run read straight off the semantics, with no
queue, compiled rules or index, for differential tests of `Engine`.

`reference_round_thousandths` and `reference_format_utility` are the report
rounding as it stood before it worked on integer ratios: Fraction
arithmetic on the scaled value, kept verbatim for differential tests.
"""

import random
import re
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace
from typing import NamedTuple

from actrsim.chunks import Chunk, ChunkType
from actrsim.engine import Instantiation
from actrsim.errors import ModelSyntaxError
from actrsim.model import (
    Annotation,
    BufferTest,
    ChunkSpec,
    ModelAST,
    Production,
    is_variable,
)
from actrsim.strategies import (
    FIRST_DECLARED,
    LAST_DECLARED,
    ConflictResolutionStrategy,
    draw_random_cost,
)

LATENCY = Fraction(1, 20)


class _Token(NamedTuple):
    text: str
    line: int
    column: int


class _List(list):
    """A parenthesized list of tokens and lists; knows where its '(' stands."""

    def __init__(self, line, column):
        super().__init__()
        self.line, self.column = line, column


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


def reference_forms(tokens):
    """Group positioned tokens into nested lists; returns the top-level forms."""
    forms = []
    stack = [forms]
    for tok in tokens:
        if tok.text == "(":
            new = _List(tok.line, tok.column)
            stack[-1].append(new)
            stack.append(new)
        elif tok.text == ")":
            if len(stack) == 1:
                raise ModelSyntaxError("unbalanced ')'", tok.line, tok.column)
            stack.pop()
        else:
            if len(stack) == 1:
                raise ModelSyntaxError(
                    f"top-level token {tok.text!r} outside any form", tok.line, tok.column
                )
            stack[-1].append(tok)
    if len(stack) > 1:
        raise ModelSyntaxError("unclosed '('", stack[-1].line, stack[-1].column)
    return forms


def reference_read(forms):
    """The AST of the forms `reference_forms` groups, read the reference way."""
    return _ModelReader().read(forms)


def reference_parse(text):
    """The AST of model text, tokenized, grouped and read the reference way."""
    return reference_read(reference_forms(char_tokenize(text)))


def _atom(item, what):
    if not isinstance(item, _Token):
        line = column = None
        probe = item
        while isinstance(probe, list) and probe:
            probe = probe[0]
        if isinstance(probe, _Token):
            line, column = probe.line, probe.column
        raise ModelSyntaxError(f"expected {what}, found a nested list", line, column)
    return item


class _ModelReader:
    def __init__(self):
        self.chunk_types: list[ChunkType] = []
        self.initial_chunks: list[ChunkSpec] = []
        self.buffer_inits: list[tuple[str, str]] = []
        self.productions: list[Production] = []
        self.rule_names: set[str] = set()
        self.annotations: dict[str, Annotation] = {}

    def read(self, forms) -> ModelAST:
        for form in forms:
            if not form or not isinstance(form[0], _Token):
                raise ModelSyntaxError("form must start with a keyword")
            head = form[0]
            handler = {
                "chunk-type": self._chunk_type,
                "add-dm": self._add_dm,
                "goal-focus": self._goal_focus,
                "p": self._production,
                "spp": self._annotation,
            }.get(head.text)
            if handler is None:
                raise ModelSyntaxError(
                    f"unknown form {head.text!r}", head.line, head.column
                )
            handler(form)
        return ModelAST(
            chunk_types=tuple(self.chunk_types),
            initial_chunks=tuple(self.initial_chunks),
            buffer_inits=tuple(self.buffer_inits),
            productions=tuple(self.productions),
            annotations=self.annotations,
        )

    def _chunk_type(self, form):
        head = form[0]
        if len(form) < 2:
            raise ModelSyntaxError("chunk-type needs a name", head.line, head.column)
        name = _atom(form[1], "a type name").text
        slots = tuple(_atom(item, "a slot name").text for item in form[2:])
        self.chunk_types.append(ChunkType(name, slots))

    def _add_dm(self, form):
        head = form[0]
        if len(form) < 2:
            raise ModelSyntaxError("add-dm needs at least one chunk", head.line, head.column)
        for spec in form[1:]:
            if isinstance(spec, _Token):
                raise ModelSyntaxError(
                    "add-dm entries must be parenthesized chunks", spec.line, spec.column
                )
            if len(spec) < 3 or _atom(spec[1], "'isa'").text != "isa":
                raise ModelSyntaxError(
                    "chunk must read (NAME isa TYPE ...)", head.line, head.column
                )
            name = _atom(spec[0], "a chunk name").text
            ctype = _atom(spec[2], "a type name").text
            rest = spec[3:]
            if len(rest) % 2:
                raise ModelSyntaxError(
                    f"chunk {name!r} has a slot without a value", head.line, head.column
                )
            pairs = []
            for i in range(0, len(rest), 2):
                slot = _atom(rest[i], "a slot name").text
                value = _atom(rest[i + 1], "a value").text
                if is_variable(value):
                    raise ModelSyntaxError(
                        f"chunk {name!r} may not hold the variable {value!r}",
                        rest[i + 1].line,
                        rest[i + 1].column,
                    )
                pairs.append((slot, value))
            self.initial_chunks.append(ChunkSpec(name, ctype, tuple(pairs)))

    def _goal_focus(self, form):
        head = form[0]
        if len(form) != 3:
            raise ModelSyntaxError("goal-focus needs BUFFER CHUNK", head.line, head.column)
        buffer = _atom(form[1], "a buffer name").text
        chunk = _atom(form[2], "a chunk name").text
        self.buffer_inits.append((buffer, chunk))

    def _production(self, form):
        head = form[0]
        if len(form) < 2:
            raise ModelSyntaxError("rule needs a name", head.line, head.column)
        name_tok = _atom(form[1], "a rule name")
        name = name_tok.text
        if name in self.rule_names:
            raise ModelSyntaxError(
                f"rule {name!r} declared twice", name_tok.line, name_tok.column
            )
        body = form[2:]
        arrow = [i for i, item in enumerate(body)
                 if isinstance(item, _Token) and item.text == "==>"]
        if len(arrow) != 1:
            raise ModelSyntaxError(
                f"rule {name!r} needs exactly one '==>'", head.line, head.column
            )
        tests = self._tests(name, body[: arrow[0]])
        actions = self._actions(name, tests, body[arrow[0] + 1 :])
        self.productions.append(Production(name, tests, *actions))
        self.rule_names.add(name)

    def _tests(self, rule, items):
        tests = []
        i = 0
        while i < len(items):
            tok = _atom(items[i], "a buffer test")
            if not (tok.text.startswith("=") and tok.text.endswith(">")):
                raise ModelSyntaxError(
                    f"rule {rule!r}: expected a '=buffer>' test, found {tok.text!r}",
                    tok.line, tok.column,
                )
            buffer = tok.text[1:-1]
            if any(t.buffer == buffer for t in tests):
                raise ModelSyntaxError(
                    f"rule {rule!r} tests buffer {buffer!r} twice", tok.line, tok.column
                )
            i += 1
            if (i + 1 >= len(items) or _atom(items[i], "'isa'").text != "isa"):
                raise ModelSyntaxError(
                    f"rule {rule!r}: test on {buffer!r} must start with 'isa TYPE'",
                    tok.line, tok.column,
                )
            ctype = _atom(items[i + 1], "a type name").text
            i += 2
            pairs = []
            while i < len(items):
                slot_tok = _atom(items[i], "a slot name")
                if slot_tok.text.endswith(">"):
                    break
                if i + 1 >= len(items):
                    raise ModelSyntaxError(
                        f"rule {rule!r}: slot {slot_tok.text!r} has no value",
                        slot_tok.line, slot_tok.column,
                    )
                value = _atom(items[i + 1], "a value").text
                if any(s == slot_tok.text for s, _ in pairs):
                    raise ModelSyntaxError(
                        f"rule {rule!r} tests slot {slot_tok.text!r} twice",
                        slot_tok.line, slot_tok.column,
                    )
                pairs.append((slot_tok.text, value))
                i += 2
            tests.append(BufferTest(buffer, ctype, tuple(pairs)))
        return tuple(tests)

    def _actions(self, rule, tests, items):
        lhs_vars = {v for t in tests for _, v in t.slot_tests if is_variable(v)}
        bound = set(lhs_vars)
        binds: list[tuple[str, str]] = []  # pending until an update reads them
        drawn: list[tuple[str, str]] = []  # every !bind!, in text order
        modifications, clearings = [], []
        i = 0
        while i < len(items):
            tok = items[i]
            if not isinstance(tok, _Token):
                raise ModelSyntaxError(f"rule {rule!r}: unexpected list in actions")
            if tok.text == "!bind!":
                if i + 2 >= len(items):
                    raise ModelSyntaxError(
                        f"rule {rule!r}: !bind! needs =VAR PROVIDER", tok.line, tok.column
                    )
                var = _atom(items[i + 1], "a variable").text
                provider = _atom(items[i + 2], "a provider name").text
                if not is_variable(var):
                    raise ModelSyntaxError(
                        f"rule {rule!r}: !bind! target {var!r} is not a variable",
                        tok.line, tok.column,
                    )
                if var in bound:
                    raise ModelSyntaxError(
                        f"rule {rule!r}: variable {var!r} is already bound",
                        tok.line, tok.column,
                    )
                bound.add(var)
                binds.append((var, provider))
                drawn.append((var, provider))
                i += 3
            elif tok.text == "!output!":
                if i + 1 >= len(items):
                    raise ModelSyntaxError(
                        f"rule {rule!r}: !output! needs an argument", tok.line, tok.column
                    )
                i += 2
            elif tok.text.startswith("+") and tok.text.endswith(">"):
                raise ModelSyntaxError(
                    f"rule {rule!r}: buffer requests ({tok.text}) are unsupported",
                    tok.line, tok.column,
                )
            elif tok.text.startswith("-") and tok.text.endswith(">"):
                clearings.append(tok.text[1:-1])
                i += 1
            elif tok.text.startswith("=") and tok.text.endswith(">"):
                buffer = tok.text[1:-1]
                i += 1
                pairs = []
                used_binds = []
                while i < len(items):
                    nxt = items[i]
                    if not isinstance(nxt, _Token) or nxt.text.endswith(">") \
                            or nxt.text in ("!bind!", "!output!"):
                        break
                    if i + 1 >= len(items):
                        raise ModelSyntaxError(
                            f"rule {rule!r}: slot {nxt.text!r} has no value",
                            nxt.line, nxt.column,
                        )
                    value_tok = _atom(items[i + 1], "a value")
                    value = value_tok.text
                    if any(s == nxt.text for s, _ in pairs):
                        raise ModelSyntaxError(
                            f"rule {rule!r} updates slot {nxt.text!r} twice",
                            nxt.line, nxt.column,
                        )
                    if is_variable(value):
                        if value not in bound:
                            raise ModelSyntaxError(
                                f"rule {rule!r}: {value!r} is not bound on the "
                                "left-hand side or by !bind!",
                                value_tok.line, value_tok.column,
                            )
                        for entry in binds:
                            if entry[0] == value and entry not in used_binds:
                                used_binds.append(entry)
                    pairs.append((nxt.text, value))
                    i += 2
                for entry in used_binds:
                    binds.remove(entry)
                modifications.append((buffer, tuple(pairs)))
            else:
                raise ModelSyntaxError(
                    f"rule {rule!r}: unexpected token {tok.text!r} in actions",
                    tok.line, tok.column,
                )
        if binds:
            var = binds[0][0]
            raise ModelSyntaxError(
                f"rule {rule!r}: !bind! variable {var!r} is never used by an action"
            )
        return tuple(drawn), tuple(modifications), tuple(clearings)

    def _annotation(self, form):
        head = form[0]
        if len(form) != 4:
            raise ModelSyntaxError(
                "spp needs RULE :key VALUE", head.line, head.column
            )
        rule_tok = _atom(form[1], "a rule name")
        rule = rule_tok.text
        if rule not in self.rule_names:
            raise ModelSyntaxError(
                f"spp names unknown rule {rule!r}", rule_tok.line, rule_tok.column
            )
        key = _atom(form[2], "an annotation key").text
        value_tok = _atom(form[3], "an annotation value")
        current = self.annotations.get(rule, Annotation())
        if key == ":reward":
            try:
                amount = Fraction(value_tok.text)
            except (ValueError, ZeroDivisionError):
                raise ModelSyntaxError(
                    f"reward {value_tok.text!r} is not a number",
                    value_tok.line, value_tok.column,
                ) from None
            if current.reward is not None:
                raise ModelSyntaxError(
                    f"rule {rule!r} has two reward annotations",
                    rule_tok.line, rule_tok.column,
                )
            current = current._replace(reward=amount)
        elif key in (":success", ":failure"):
            if value_tok.text != "t":
                raise ModelSyntaxError(
                    f"{key} takes the literal 't'", value_tok.line, value_tok.column
                )
            current = current._replace(
                success=current.success or key == ":success",
                failure=current.failure or key == ":failure",
            )
        else:
            raise ModelSyntaxError(
                f"unknown annotation key {key!r}", head.line, head.column
            )
        self.annotations[rule] = current


_ATOM = re.compile(r"[^ \t\r\n();]+")


def _ends_slots(text):
    """A token ending in '>' (so also '==>'), !bind! or !output! ends a slot list."""
    return text.endswith(">") or text in ("!bind!", "!output!")


def _twice(what, names):
    """A diagnostic for each of names that repeats an earlier one."""
    return [f"{what} {name!r} twice" for i, name in enumerate(names) if name in names[:i]]


def reference_validate(ast: ModelAST) -> list[str]:
    """Diagnostics for every rule about what a model means, each stated once; a
    model with none round-trips: parse_model(format_model(ast)) == ast."""
    out = []
    # declared names and values must be symbols; other names must match a declaration
    symbols, pairs = set(), []  # pairs: the (slot, value) lists, values to check
    types = {}
    for ctype in ast.chunk_types:
        if ctype.name in types:
            out.append(f"chunk type {ctype.name!r} declared twice")
        out += _twice(f"chunk type {ctype.name!r} names slot", ctype.slots)
        types[ctype.name] = ctype
        symbols.update((ctype.name,), ctype.slots)

    chunks = {}
    for spec in ast.initial_chunks:
        if spec.name in chunks:
            out.append(f"chunk {spec.name!r} declared twice")
        chunks[spec.name] = spec
        symbols.add(spec.name)
        pairs.append(spec.slot_values)
        if len(dict(spec.slot_values)) < len(spec.slot_values):
            out += _twice(f"chunk {spec.name!r} names slot", [s for s, _ in spec.slot_values])
        ctype = types.get(spec.type)
        if ctype is None:
            out.append(f"chunk {spec.name!r} has unknown type {spec.type!r}")
        for slot, value in spec.slot_values:
            if is_variable(value):
                out.append(f"chunk {spec.name!r} may not hold the variable {value!r}")
            if ctype is not None and slot not in ctype.slots:
                out.append(f"chunk {spec.name!r} fills unknown slot {slot!r}")

    # buffers are typed once, here: goal-focus is the only way to fill one
    buffers = {}  # buffer -> type of its chunk, None when unknown
    for buffer, chunk in ast.buffer_inits:
        if buffer in buffers:
            out.append(f"buffer {buffer!r} initialized twice")
        if buffer == "=":  # a test or update of it would print as '==>'
            out.append("buffer '=' would print as the rule arrow")
        spec = chunks.get(chunk)
        if spec is None:
            out.append(f"buffer {buffer!r} initialized with unknown chunk {chunk!r}")
        buffers[buffer] = types.get(spec.type) if spec is not None else None
    pairs.append(ast.buffer_inits)

    # a buffer some rule clears can be empty when a rule fires, so a rule may
    # modify it only if it tests it (a firing clears after it modifies)
    cleared = {buffer for p in ast.productions for buffer in p.clearings}
    rule_names = set()
    for prod in ast.productions:
        if prod.name in rule_names:
            out.append(f"rule {prod.name!r} declared twice")
        rule_names.add(prod.name)
        tested = {test.buffer for test in prod.tests}
        if len(tested) < len(prod.tests):
            out += _twice(f"rule {prod.name!r} tests buffer", [t.buffer for t in prod.tests])
        # every tested value: a constant never equals a variable's name
        bound = {v for test in prod.tests for _, v in test.slot_tests}
        for test in prod.tests:
            if len(dict(test.slot_tests)) < len(test.slot_tests):
                out += _twice(f"rule {prod.name!r} test on {test.buffer!r} names slot",
                              [s for s, _ in test.slot_tests])
            if test.buffer not in buffers:
                out.append(
                    f"rule {prod.name!r} tests undeclared buffer {test.buffer!r}"
                )
            ctype = types.get(test.type)
            if ctype is None:
                out.append(f"rule {prod.name!r} tests unknown type {test.type!r}")
                continue
            for slot, _ in test.slot_tests:
                if slot not in ctype.slots:
                    out.append(
                        f"rule {prod.name!r} tests unknown slot {slot!r} "
                        f"of type {test.type!r}"
                    )
        # a firing draws every !bind! before it modifies, so any modification may read it
        reads = ({v for _, updates in prod.modifications for _, v in updates}
                 if prod.binds else ())
        for var, provider in prod.binds:
            symbols.add(provider)
            what = f"rule {prod.name!r} binds {var!r}"
            if not is_variable(var):
                out.append(f"{what}, which is not a variable")
            elif var in bound:
                out.append(f"{what}, which is already bound")
            elif var not in reads:
                out.append(f"{what}, which no modification reads")
            bound.add(var)
        for buffer, updates in prod.modifications:
            pairs.append(updates)
            if len(dict(updates)) < len(updates):
                out += _twice(f"rule {prod.name!r} update of {buffer!r} names slot",
                              [s for s, _ in updates])
            for slot, value in updates:
                if value not in bound and is_variable(value):
                    out.append(
                        f"rule {prod.name!r} updates slot {slot!r} with unbound "
                        f"variable {value!r}"
                    )
            if buffer in cleared and buffer not in tested:
                out.append(
                    f"rule {prod.name!r} modifies buffer {buffer!r} without "
                    "testing it, but a rule clears that buffer"
                )
            ctype = buffers.get(buffer)
            if ctype is not None:
                for slot, _ in updates:
                    if slot not in ctype.slots:
                        out.append(
                            f"rule {prod.name!r} updates unknown slot {slot!r} "
                            f"of type {ctype.name!r} in buffer {buffer!r}"
                        )
        for buffer in chain([buffer for buffer, _ in prod.modifications], prod.clearings):
            if buffer not in buffers:
                out.append(f"rule {prod.name!r} acts on undeclared buffer {buffer!r}")
        symbols |= bound  # the tested values and the !bind! variables

    for rule, annotation in ast.annotations.items():
        if rule not in rule_names:
            out.append(f"annotation targets unknown rule {rule!r}")
        if annotation == Annotation():
            out.append(f"annotation of rule {rule!r} is empty")
    # a symbol is one atom that does not end a slot list (so is not '==>')
    symbols.update(rule_names, chain.from_iterable(chain.from_iterable(pairs)))
    out += sorted(f"{symbol!r} is not a symbol" for symbol in symbols
                  if not _ATOM.fullmatch(symbol) or _ends_slots(symbol))
    return out


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


def textbook_reinforcement(utility, alpha, reward, now, selected):
    """U + alpha (R - (t - t_sel) - U): one application rewarded R at t."""
    return utility + alpha * (reward - (now - selected) - utility)


def textbook_success_cost(s, f, e, goal_value):
    """(P, C, U): P = s / (s + f), C = e / (s + f), U = P G - C."""
    p = Fraction(s, s + f)
    c = e / (s + f)
    return p, c, p * goal_value - c


def rc_utility(p, goal_value, zeta):
    """U = P G - zeta: a random-cost utility from its cost draw zeta."""
    return p * goal_value - zeta


def replay_reinforcement(trace, annotations, alpha=Fraction(1, 5)):
    """Expected utility table after replaying the fired-rule sequence."""
    utilities: dict = {}
    log: list = []
    for entry in trace:
        log.append((entry.rule, entry.time - LATENCY))
        ann = annotations.get(entry.rule)
        if ann is not None and ann.reward is not None:
            for rule, selected in log:
                utilities[rule] = textbook_reinforcement(
                    utilities.get(rule, Fraction(0)), alpha, ann.reward, entry.time, selected
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
        rule: textbook_success_cost(s, f, e, goal_value)[2]
        for rule, (s, f, e) in counters.items()
    }


# -- reference strategies ------------------------------------------------------------

class ReferenceReinforcement(ConflictResolutionStrategy):
    """Reward-propagating utility learning on the textbook formula.

    A reward R triggered at t updates each logged application, in order,
    to U + alpha (R - (t - t_sel) - U), then empties the log. Utilities
    start at 0.
    """

    name = "reinforcement"
    default_tiebreak = LAST_DECLARED

    def __init__(self, alpha=Fraction(1, 5), tiebreak=None):
        super().__init__(tiebreak)
        self.alpha = alpha
        self.utilities: dict[str, Fraction] = {}

    def trigger_reward(self, amount, now):
        for rule, selected in self.applied_log:
            self.utilities[rule] = textbook_reinforcement(
                self.utility(rule), self.alpha, amount, now, selected
            )
        self.applied_log.clear()

    def utility(self, rule):
        return self.utilities.get(rule, Fraction(0))



class ReferenceSuccessCost(ConflictResolutionStrategy):
    """Success-probability / average-cost utility learning.

    Counters start at one success, no failures, and 0.05 s of effort (the
    selection time of one firing). A success or failure trigger at time t
    bumps the matching counter once per logged application and adds each
    application's t - t_sel to its rule's efforts.
    """

    name = "success-cost"
    default_tiebreak = FIRST_DECLARED

    INITIAL_EFFORT = Fraction(1, 20)

    def __init__(self, goal_value=Fraction(20), tiebreak=None):
        super().__init__(tiebreak)
        self.goal_value = goal_value
        self._counters: dict[str, list] = {}  # rule -> [successes, failures, efforts]
        self._cached: dict[str, tuple] = {}  # rule -> (P, C, U)

    def _entry(self, rule):
        if rule not in self._counters:
            self._counters[rule] = [1, 0, self.INITIAL_EFFORT]
            self._recompute(rule)
        return self._counters[rule]

    def _recompute(self, rule):
        self._cached[rule] = textbook_success_cost(*self._counters[rule], self.goal_value)

    def counters(self, rule):
        s, f, e = self._entry(rule)
        return s, f, e

    def score(self, candidates):
        return {c.rule: self.utility(c.rule) for c in candidates}

    def trigger_outcome(self, kind, now):
        index = {"success": 0, "failure": 1}[kind]
        for rule, selected in self.applied_log:
            entry = self._entry(rule)
            entry[index] += 1
            entry[2] += now - selected
            self._recompute(rule)
        self.applied_log.clear()

    def success_probability(self, rule):
        self._entry(rule)
        return self._cached[rule][0]

    def utility(self, rule):
        self._entry(rule)
        return self._cached[rule][2]


class ReferenceRandomCost(ReferenceSuccessCost):
    """Success/cost learning with per-cycle random estimated costs.

    Shares the success/failure/effort counters but replaces the average cost
    with an exponential draw around the expected cost theta = efforts /
    successes, recomputed for every conflict-set member on every conflict-
    resolution cycle. The reported utility of a rule is the one from its most
    recent draw. The float theta and P a draw uses are computed once per
    change of the rule's counters.
    """

    name = "random-cost"
    default_tiebreak = FIRST_DECLARED

    def __init__(self, goal_value=Fraction(20), rng=None, seed=0, tiebreak=None):
        super().__init__(goal_value, tiebreak)
        self.rng = rng if rng is not None else random.Random(seed)
        self._last_utility: dict[str, float] = {}
        self._floats: dict[str, tuple] = {}  # rule -> (float theta, float P)
        self._goal_float = float(goal_value)

    def theta(self, rule):
        successes, _, efforts = self._entry(rule)
        return efforts / successes

    def _recompute(self, rule):
        super()._recompute(rule)
        self._floats[rule] = (float(self.theta(rule)), float(self._cached[rule][0]))

    def score(self, candidates):
        scores = {}
        for c in candidates:
            self._entry(c.rule)
            theta, p = self._floats[c.rule]
            u = rc_utility(p, self._goal_float, draw_random_cost(theta, self.rng.random()))
            self._last_utility[c.rule] = scores[c.rule] = u
        return scores

    def utility(self, rule):
        if rule in self._last_utility:
            return self._last_utility[rule]
        return float(self.success_probability(rule) * self.goal_value)


# -- a whole run, straight from the semantics ---------------------------------------

def reference_identity(inst):
    """What refraction remembers of an application: rule, bindings, snapshot."""
    return (inst.rule, tuple(sorted(inst.bindings.items())), inst.matched)


def reference_select(candidates, scores, tiebreak):
    """A best-scored candidate; among exact ties the first or last declared."""
    best = max(scores[c.rule] for c in candidates)
    tied = [c for c in candidates if scores[c.rule] == best]
    pick = min if tiebreak == FIRST_DECLARED else max
    return pick(tied, key=lambda c: c.source_index)


def reference_run(model, strategy, providers, refraction, t_limit):
    """Run model from its initial state; returns (trace, held, chunks).

    The clock is an exact Fraction and there is no queue. Each cycle
    matches every rule with linear_scan, drops each instantiation whose
    identity was applied before (under refraction), scores the rest with
    strategy and picks one with reference_select. The winner fires LATENCY
    later, unless that passes t_limit: the strategy logs it with its
    selection time, its annotation's triggers run, every !bind! is
    evaluated in text order, then all modifications are applied, then all
    clearings. trace lists (time, rule, bindings) per firing.
    """
    state = SimpleNamespace(  # what linear_scan reads of an engine
        held=dict(model.buffer_inits),
        chunks={spec.name: Chunk(spec.name, spec.type, dict(spec.slot_values))
                for spec in model.initial_chunks},
    )
    applied, trace, clock = set(), [], Fraction(0)
    while True:
        candidates = [c for c in linear_scan(state, model.productions)
                      if not (refraction and reference_identity(c) in applied)]
        if not candidates:
            break
        winner = reference_select(candidates, strategy.score(candidates), strategy.tiebreak)
        if clock + LATENCY > t_limit:
            break
        selected, clock = clock, clock + LATENCY
        strategy.record_application(winner.rule, selected)
        annotation = model.annotations.get(winner.rule)
        if annotation is not None:
            if annotation.reward is not None:
                strategy.trigger_reward(annotation.reward, clock)
            if annotation.success:
                strategy.trigger_outcome("success", clock)
            if annotation.failure:
                strategy.trigger_outcome("failure", clock)
        if refraction:  # an identity holding a provider's list cannot be hashed
            applied.add(reference_identity(winner))
        env = dict(winner.bindings)
        rule = model.productions[winner.source_index]
        for variable, provider in rule.binds:
            env[variable] = next(providers[provider])
        trace.append((clock, winner.rule, env))
        for buffer, updates in rule.modifications:
            chunk = state.chunks[state.held[buffer]]
            for slot, value in updates:
                chunk.slot_values[slot] = env[value] if is_variable(value) else value
        for buffer in rule.clearings:
            state.held[buffer] = None
    return trace, state.held, state.chunks


# -- report rounding, on Fractions -----------------------------------------------

def reference_round_thousandths(value) -> Fraction:
    """Exact half-away-from-zero rounding to 3 decimals."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    sign = -1 if value < 0 else 1
    scaled = abs(value) * 1000
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled - units) >= 1:
        units += 1
    return Fraction(sign * units, 1000)


def reference_format_utility(value) -> str:
    rounded = reference_round_thousandths(value)
    units = abs(rounded.numerator * 1000 // rounded.denominator)
    text = f"{units // 1000}.{units % 1000:03d}"
    return "-" + text if rounded < 0 and units else text
