"""Parser for the s-expression model language.

A model file is a sequence of parenthesized forms; ``;`` starts a comment
running to the end of the line. The accepted forms are:

    (chunk-type NAME SLOT...)
    (add-dm (NAME isa TYPE SLOT VALUE ...) ...)
    (goal-focus BUFFER CHUNK)
    (p NAME TEST... ==> ACTION...)
    (spp RULE :reward NUMBER)
    (spp RULE :success t)
    (spp RULE :failure t)

A TEST is ``=buffer> isa TYPE SLOT VALUE ...`` where values may be constants
or ``=variables``. An ACTION is either a modification ``=buffer> SLOT VALUE
...``, a clearing ``-buffer>``, a host binding ``!bind! =VAR PROVIDER``
(drawn at apply time from a provider registered with the engine), or an
``!output!`` directive, which is parsed and ignored (logged). Buffer requests
(``+buffer>``) are not supported and rejected at parse time.

A ``Production`` keeps its right-hand side as what a firing does, in that
order: ``binds``, the ``(variable, provider)`` pairs in text order, all
drawn first; ``modifications``, the ``(buffer, slot_updates)`` pairs in text
order; ``clearings``, the cleared buffers. Where a ``!bind!`` stands among
the actions carries no meaning.

``parse_model`` handles syntax: each ``ModelSyntaxError`` carries the line and
column of the offending token, or of the ``(`` of the offending list.
``validate_model`` handles semantics, each rule once; its diagnostics name the
rule, chunk or slot but carry no position. A model it accepts round-trips.
"""

import logging
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .chunks import ChunkType
from .errors import ModelSyntaxError

log = logging.getLogger(__name__)


def is_variable(symbol: str) -> bool:
    return symbol.startswith("=") and not symbol.endswith(">")


@dataclass(frozen=True)
class BufferTest:
    buffer: str
    type: str
    slot_tests: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Production:
    name: str
    tests: tuple[BufferTest, ...]
    binds: tuple[tuple[str, str], ...] = ()  # (variable, provider name)
    modifications: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()
    clearings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ChunkSpec:
    name: str
    type: str
    slot_values: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Annotation:
    reward: Fraction | None = None
    success: bool = False
    failure: bool = False


@dataclass(frozen=True)
class ModelAST:
    chunk_types: tuple[ChunkType, ...] = ()
    initial_chunks: tuple[ChunkSpec, ...] = ()
    buffer_inits: tuple[tuple[str, str], ...] = ()
    productions: tuple[Production, ...] = ()
    annotations: dict = field(default_factory=dict)  # rule name -> Annotation


# -- tokenizer / reader ---------------------------------------------------------

class _Token(NamedTuple):
    text: str
    line: int
    column: int


class _List(list):
    """A parenthesized list of tokens and lists; knows where its '(' stands."""

    def __init__(self, line, column):
        super().__init__()
        self.line, self.column = line, column


_ATOM = re.compile(r"[^ \t\r\n();]+")
# a parenthesis, an atom, a comment, or a newline; other whitespace separates
_LEXEME = re.compile(rf"[()]|{_ATOM.pattern}|;[^\n]*|\n")


def _tokenize(text: str):
    tokens = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        lexeme = match.group()
        if lexeme == "\n":
            line += 1
            line_start = match.end()
        elif lexeme[0] != ";":
            tokens.append(_Token(lexeme, line, match.start() - line_start + 1))
    return tokens


def _read_forms(tokens):
    """Group tokens into nested lists; returns the top-level forms."""
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


def _atom(item, what):
    if not isinstance(item, _Token):
        raise ModelSyntaxError(
            f"expected {what}, found a nested list", item.line, item.column
        )
    return item


def _ends_slots(text):
    """A token ending in '>' (so also '==>'), !bind! or !output! ends a slot list."""
    return text.endswith(">") or text in ("!bind!", "!output!")


def _slot_pairs(items, i, where):
    """Read SLOT VALUE pairs from items[i:] up to a nested list or a token that
    ends a slot list; returns the (slot, value) token pairs and the index
    after them. A slot followed by such a token has no value."""
    pairs = []
    while i < len(items):
        slot = items[i]
        if not isinstance(slot, _Token) or _ends_slots(slot.text):
            break
        value = items[i + 1] if i + 1 < len(items) else None
        if value is None or isinstance(value, _Token) and _ends_slots(value.text):
            raise ModelSyntaxError(
                f"{where}: slot {slot.text!r} has no value", slot.line, slot.column
            )
        pairs.append((slot, _atom(value, "a value")))
        i += 2
    return pairs, i


def _texts(pairs):
    return tuple((slot.text, value.text) for slot, value in pairs)


# -- form parsers -----------------------------------------------------------------

class _ModelReader:
    def __init__(self):
        self.chunk_types: list[ChunkType] = []
        self.initial_chunks: list[ChunkSpec] = []
        self.buffer_inits: list[tuple[str, str]] = []
        self.productions: list[Production] = []
        self.annotations: dict[str, Annotation] = {}

    def read(self, forms) -> ModelAST:
        for form in forms:
            if not form or not isinstance(form[0], _Token):
                raise ModelSyntaxError(
                    "form must start with a keyword", form.line, form.column
                )
            head = form[0]
            handler = self.HANDLERS.get(head.text)
            if handler is None:
                raise ModelSyntaxError(
                    f"unknown form {head.text!r}", head.line, head.column
                )
            handler(self, form)
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
                    "chunk must read (NAME isa TYPE ...)", spec.line, spec.column
                )
            name = _atom(spec[0], "a chunk name").text
            ctype = _atom(spec[2], "a type name").text
            pairs, end = _slot_pairs(spec, 3, f"chunk {name!r}")
            if end < len(spec):
                tok = _atom(spec[end], "a slot name")
                raise ModelSyntaxError(
                    f"chunk {name!r}: {tok.text!r} is not a slot name",
                    tok.line, tok.column,
                )
            self.initial_chunks.append(ChunkSpec(name, ctype, _texts(pairs)))

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
        name = _atom(form[1], "a rule name").text
        body = form[2:]
        arrow = [i for i, item in enumerate(body)
                 if isinstance(item, _Token) and item.text == "==>"]
        if len(arrow) != 1:
            raise ModelSyntaxError(
                f"rule {name!r} needs exactly one '==>'", head.line, head.column
            )
        tests = self._tests(name, body[: arrow[0]])
        actions = self._actions(name, body[arrow[0] + 1 :])
        self.productions.append(Production(name, tests, *actions))

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
            if i + 2 >= len(items) or _atom(items[i + 1], "'isa'").text != "isa":
                raise ModelSyntaxError(
                    f"rule {rule!r}: test on {buffer!r} must start with 'isa TYPE'",
                    tok.line, tok.column,
                )
            ctype = _atom(items[i + 2], "a type name").text
            pairs, i = _slot_pairs(items, i + 3, f"rule {rule!r}: test on {buffer!r}")
            tests.append(BufferTest(buffer, ctype, _texts(pairs)))
        return tuple(tests)

    def _actions(self, rule, items):
        """The rule's binds, modifications and clearings, each in text order."""
        binds, modifications, clearings = [], [], []
        i = 0
        while i < len(items):
            tok = _atom(items[i], f"an action in rule {rule!r}")
            if tok.text == "!bind!":
                if i + 2 >= len(items):
                    raise ModelSyntaxError(
                        f"rule {rule!r}: !bind! needs =VAR PROVIDER", tok.line, tok.column
                    )
                var = _atom(items[i + 1], "a variable").text
                provider = _atom(items[i + 2], "a provider name").text
                binds.append((var, provider))
                i += 3
            elif tok.text == "!output!":
                if i + 1 >= len(items):
                    raise ModelSyntaxError(
                        f"rule {rule!r}: !output! needs an argument", tok.line, tok.column
                    )
                log.debug("rule %s output directive: %s", rule, _format_output(items[i + 1]))
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
                pairs, i = _slot_pairs(items, i + 1, f"rule {rule!r}: update of {buffer!r}")
                modifications.append((buffer, _texts(pairs)))
            else:
                raise ModelSyntaxError(
                    f"rule {rule!r}: unexpected token {tok.text!r} in actions",
                    tok.line, tok.column,
                )
        return tuple(binds), tuple(modifications), tuple(clearings)

    def _annotation(self, form):
        head = form[0]
        if len(form) != 4:
            raise ModelSyntaxError(
                "spp needs RULE :key VALUE", head.line, head.column
            )
        rule_tok = _atom(form[1], "a rule name")
        rule = rule_tok.text
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
            current = replace(current, reward=amount)
        elif key in (":success", ":failure"):
            if value_tok.text != "t":
                raise ModelSyntaxError(
                    f"{key} takes the literal 't'", value_tok.line, value_tok.column
                )
            current = replace(
                current,
                success=current.success or key == ":success",
                failure=current.failure or key == ":failure",
            )
        else:
            raise ModelSyntaxError(
                f"unknown annotation key {key!r}", head.line, head.column
            )
        self.annotations[rule] = current

    HANDLERS = {
        "chunk-type": _chunk_type,
        "add-dm": _add_dm,
        "goal-focus": _goal_focus,
        "p": _production,
        "spp": _annotation,
    }


def _format_output(item):
    if isinstance(item, _Token):
        return item.text
    return "(" + " ".join(_format_output(sub) for sub in item) + ")"


def parse_model(text: str) -> ModelAST:
    """Parse model text into an AST, preserving source order."""
    return _ModelReader().read(_read_forms(_tokenize(text)))


# -- validation ----------------------------------------------------------------------

def _twice(what, names):
    """A diagnostic for each of names that repeats an earlier one."""
    return [f"{what} {name!r} twice" for i, name in enumerate(names) if name in names[:i]]


def validate_model(ast: ModelAST) -> list[str]:
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


# -- pretty printer --------------------------------------------------------------------

def format_model(ast: ModelAST) -> str:
    """Emit canonical model text; parse_model reads it back to any AST that
    validate_model accepts."""
    lines = []
    for ctype in ast.chunk_types:
        lines.append("(chunk-type " + " ".join((ctype.name,) + ctype.slots) + ")")
    for spec in ast.initial_chunks:
        pairs = " ".join(f"{s} {v}" for s, v in spec.slot_values)
        body = f"{spec.name} isa {spec.type}" + (f" {pairs}" if pairs else "")
        lines.append(f"(add-dm ({body}))")
    for buffer, chunk in ast.buffer_inits:
        lines.append(f"(goal-focus {buffer} {chunk})")
    for prod in ast.productions:
        lines.append(f"(p {prod.name}")
        for test in prod.tests:
            pairs = " ".join(f"{s} {v}" for s, v in test.slot_tests)
            lines.append(
                f"   ={test.buffer}> isa {test.type}" + (f" {pairs}" if pairs else "")
            )
        lines.append(" ==>")
        for var, provider in prod.binds:
            lines.append(f"   !bind! {var} {provider}")
        for buffer, updates in prod.modifications:
            pairs = " ".join(f"{s} {v}" for s, v in updates)
            lines.append(f"   ={buffer}>" + (f" {pairs}" if pairs else ""))
        for buffer in prod.clearings:
            lines.append(f"   -{buffer}>")
        lines.append(")")
    for rule, ann in ast.annotations.items():
        if ann.reward is not None:
            lines.append(f"(spp {rule} :reward {ann.reward})")
        if ann.success:
            lines.append(f"(spp {rule} :success t)")
        if ann.failure:
            lines.append(f"(spp {rule} :failure t)")
    return "\n".join(lines) + "\n"
