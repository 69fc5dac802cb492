"""Reader, validator and printer of the s-expression model language.

A model is a sequence of parenthesized forms; ``;`` comments to the end of
the line. The forms:

    (chunk-type NAME SLOT...)
    (add-dm (NAME isa TYPE SLOT VALUE ...) ...)
    (goal-focus BUFFER CHUNK)
    (p NAME TEST... ==> ACTION...)
    (spp RULE :reward NUMBER)    (spp RULE :success t)    (spp RULE :failure t)

A TEST is ``=buffer> isa TYPE SLOT VALUE ...``, each value a constant or a
``=variable``. An ACTION modifies (``=buffer> SLOT VALUE ...``), clears
(``-buffer>``), binds a variable to a provider's next value at apply time
(``!bind! =VAR PROVIDER``), or is an ``!output!`` whose argument is dropped;
requests (``+buffer>``) are rejected. A ``Production`` keeps its actions as a
firing runs them: ``binds``, ``modifications``, then ``clearings``, each in
text order. The records are NamedTuples.

``parse_model`` checks syntax; each ``ModelSyntaxError`` carries the
LINE:COLUMN of the offending token or of the ``(`` of the offending list.
``validate_model`` checks meaning, each rule once, naming the rule, chunk or
slot but no position. A model it accepts round-trips:
``parse_model(format_model(ast)) == ast``.
"""

import re
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

from .chunks import ChunkType
from .errors import ModelSyntaxError


def is_variable(symbol: str) -> bool:
    return symbol.startswith("=") and not symbol.endswith(">")


class BufferTest(NamedTuple):
    buffer: str
    type: str
    slot_tests: tuple[tuple[str, str], ...] = ()


class Production(NamedTuple):
    name: str
    tests: tuple[BufferTest, ...]
    binds: tuple[tuple[str, str], ...] = ()  # (variable, provider name)
    modifications: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()
    clearings: tuple[str, ...] = ()


class ChunkSpec(NamedTuple):
    name: str
    type: str
    slot_values: tuple[tuple[str, str], ...] = ()


class Annotation(NamedTuple):
    reward: Fraction | None = None
    success: bool = False
    failure: bool = False


class ModelAST(NamedTuple):
    chunk_types: tuple[ChunkType, ...] = ()
    initial_chunks: tuple[ChunkSpec, ...] = ()
    buffer_inits: tuple[tuple[str, str], ...] = ()
    productions: tuple[Production, ...] = ()
    annotations: dict = MappingProxyType({})  # rule name -> Annotation


# -- tokenizer / reader ---------------------------------------------------------

class _List(list):
    """A parenthesized list of tokens and lists; knows the token indices of its
    '(' and ')'."""

    __slots__ = ("open", "close")


class _Misread(Exception):
    """A reader error: its message and the index of the token it names."""


_ATOM = re.compile(r"[^ \t\r\n();]+")
_COMMENT = re.compile(r";[^\n]*")
# a parenthesis or an atom, or a comment, which matches the empty group
_LEXEME = re.compile(rf"([()]|{_ATOM.pattern})|{_COMMENT.pattern}")
_record = tuple.__new__  # a record from a tuple of all its fields
_ENDS_SLOTS = ("!bind!", "!output!")  # as does any token ending in '>', so '==>' too


def _tokenize(text: str):
    """The parentheses and atoms of text: comments cut, and only space, tab, CR
    and LF separating atoms, then one split on spaces."""
    if ";" in text:
        text = _COMMENT.sub("", text)
    text = text.replace("\t", " ").replace("\r", " ").replace("\n", " ")
    return [*filter(None, text.replace("(", " ( ").replace(")", " ) ").split(" "))]


def _position(text, index):
    """The line and column of token `index` of text."""
    start = [m for m in _LEXEME.finditer(text) if m[1]][index].start()
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def _read_forms(tokens):
    """Group tokens into nested lists; returns the top-level forms."""
    forms = current = []
    stack = []
    end = len(tokens)
    find = (tokens + ["(", ")"]).index  # past the end, so always found
    next_open, next_close = find("("), find(")")
    index = 0
    while True:
        paren = next_open if next_open < next_close else next_close
        if index < paren:
            if current is forms:
                raise _Misread(f"top-level token {tokens[index]!r} outside any form", index)
            current += tokens[index:paren]
        if paren == end:
            break
        if paren == next_open:
            new = _List()
            new.open = paren
            current.append(new)
            stack.append(current)
            current = new
            next_open = find("(", paren + 1)
        else:
            if not stack:
                raise _Misread("unbalanced ')'", paren)
            current.close = paren
            current = stack.pop()
            next_close = find(")", paren + 1)
        index = paren + 1
    if stack:
        raise _Misread("unclosed '('", current.open)
    return forms


def _index(items, i):
    """The token index of items[i]: after the '(' of items, each item before
    it takes one token, or a nested list all of its own."""
    return items.open + 1 + sum(1 if type(item) is str else item.close - item.open + 1
                                for item in items[:i])


def _atom(item, what):
    if type(item) is not str:
        raise _Misread(f"expected {what}, found a nested list", item.open)
    return item


def _slot_pairs(items, i, where, *names):
    """Read SLOT VALUE pairs from items[i:] up to a nested list or a token that
    ends a slot list (one ending in '>', !bind! or !output!); returns the
    (slot, value) pairs and the index after them. A slot followed by such a
    token, or by nothing, has no value; that error reads where.format(*names)."""
    pairs = []
    end = len(items)
    while i < end:
        slot = items[i]
        if type(slot) is not str or slot[-1] == ">" or slot in _ENDS_SLOTS:
            break
        value = items[i + 1] if i + 1 < end else ">"  # no value ends the list
        if type(value) is not str or value[-1] == ">" or value in _ENDS_SLOTS:
            _atom(value, "a value")
            raise _Misread(f"{where.format(*names)}: slot {slot!r} has no value",
                           _index(items, i))
        pairs.append((slot, value))
        i += 2
    return tuple(pairs), i


# -- form parsers -----------------------------------------------------------------

class _ModelReader:
    def __init__(self):
        self.chunk_types: list[ChunkType] = []
        self.initial_chunks: list[ChunkSpec] = []
        self.buffer_inits: list[tuple[str, str]] = []
        self.productions: list[Production] = []
        self.annotations: dict[str, Annotation] = {}

    def read(self, forms) -> ModelAST:
        handlers = self.HANDLERS
        for form in forms:
            if not form or type(form[0]) is not str:
                raise _Misread("form must start with a keyword", form.open)
            handler = handlers.get(form[0])
            if handler is None:
                raise _Misread(f"unknown form {form[0]!r}", form.open + 1)
            handler(self, form)
        return ModelAST(
            chunk_types=tuple(self.chunk_types),
            initial_chunks=tuple(self.initial_chunks),
            buffer_inits=tuple(self.buffer_inits),
            productions=tuple(self.productions),
            annotations=self.annotations,
        )

    def _chunk_type(self, form):
        if len(form) < 2:
            raise _Misread("chunk-type needs a name", form.open + 1)
        name = _atom(form[1], "a type name")
        slots = tuple(_atom(item, "a slot name") for item in form[2:])
        self.chunk_types.append(ChunkType(name, slots))

    def _add_dm(self, form):
        if len(form) < 2:
            raise _Misread("add-dm needs at least one chunk", form.open + 1)
        for j, spec in enumerate(form[1:], 1):
            if type(spec) is str:
                raise _Misread("add-dm entries must be parenthesized chunks", _index(form, j))
            if len(spec) < 3 or _atom(spec[1], "'isa'") != "isa":
                raise _Misread("chunk must read (NAME isa TYPE ...)", spec.open)
            name = _atom(spec[0], "a chunk name")
            ctype = _atom(spec[2], "a type name")
            pairs, end = _slot_pairs(spec, 3, "chunk {!r}", name)
            if end < len(spec):
                tok = _atom(spec[end], "a slot name")
                raise _Misread(f"chunk {name!r}: {tok!r} is not a slot name", _index(spec, end))
            self.initial_chunks.append(ChunkSpec(name, ctype, pairs))

    def _goal_focus(self, form):
        if len(form) != 3:
            raise _Misread("goal-focus needs BUFFER CHUNK", form.open + 1)
        buffer = _atom(form[1], "a buffer name")
        chunk = _atom(form[2], "a chunk name")
        self.buffer_inits.append((buffer, chunk))

    def _production(self, form):
        if len(form) < 2:
            raise _Misread("rule needs a name", form.open + 1)
        name = form[1]
        if type(name) is not str:
            _atom(name, "a rule name")
        # form[0] is 'p', so the one '==>' after the name is the arrow
        if form.count("==>") - (name == "==>") != 1:
            raise _Misread(f"rule {name!r} needs exactly one '==>'", form.open + 1)
        arrow = form.index("==>", 2)
        tests = self._tests(name, form, arrow)
        self.productions.append(
            _record(Production, (name, tests) + self._actions(name, form, arrow + 1)))

    def _tests(self, rule, form, arrow):
        """The tests of form[2:arrow]; a slot list ends at the arrow."""
        tests = []
        i = 2
        while i < arrow:
            tok = form[i]
            if type(tok) is not str:
                raise _Misread("expected a buffer test, found a nested list", tok.open)
            if tok[0] != "=" or tok[-1] != ">":
                raise _Misread(
                    f"rule {rule!r}: expected a '=buffer>' test, found {tok!r}",
                    _index(form, i),
                )
            buffer = tok[1:-1]
            if i + 2 >= arrow or form[i + 1] != "isa":
                if i + 2 < arrow:
                    _atom(form[i + 1], "'isa'")
                raise _Misread(
                    f"rule {rule!r}: test on {buffer!r} must start with 'isa TYPE'",
                    _index(form, i),
                )
            ctype = form[i + 2]
            if type(ctype) is not str:
                _atom(ctype, "a type name")
            pairs, i = _slot_pairs(form, i + 3, "rule {!r}: test on {!r}", rule, buffer)
            tests.append(_record(BufferTest, (buffer, ctype, pairs)))
        return tuple(tests)

    def _actions(self, rule, form, i):
        """The binds, modifications and clearings of form[i:], each in text order."""
        binds, modifications, clearings = [], [], []
        end = len(form)
        while i < end:
            tok = form[i]
            if type(tok) is not str:
                _atom(tok, f"an action in rule {rule!r}")
            if tok[-1] == ">" and tok[0] == "=":
                buffer = tok[1:-1]
                pairs, i = _slot_pairs(form, i + 1, "rule {!r}: update of {!r}", rule, buffer)
                modifications.append((buffer, pairs))
            elif tok[-1] == ">" and tok[0] == "-":
                clearings.append(tok[1:-1])
                i += 1
            elif tok == "!bind!":
                if i + 2 >= end:
                    raise _Misread(f"rule {rule!r}: !bind! needs =VAR PROVIDER", _index(form, i))
                var, provider = form[i + 1], form[i + 2]
                if type(var) is not str or type(provider) is not str:
                    _atom(var, "a variable")
                    _atom(provider, "a provider name")
                binds.append((var, provider))
                i += 3
            elif tok == "!output!":
                if i + 1 >= end:
                    raise _Misread(f"rule {rule!r}: !output! needs an argument", _index(form, i))
                i += 2
            elif tok[-1] == ">" and tok[0] == "+":
                raise _Misread(
                    f"rule {rule!r}: buffer requests ({tok}) are unsupported", _index(form, i)
                )
            else:
                raise _Misread(
                    f"rule {rule!r}: unexpected token {tok!r} in actions", _index(form, i)
                )
        return tuple(binds), tuple(modifications), tuple(clearings)

    def _annotation(self, form):
        if len(form) != 4:
            raise _Misread("spp needs RULE :key VALUE", form.open + 1)
        rule = _atom(form[1], "a rule name")
        key = _atom(form[2], "an annotation key")
        value = _atom(form[3], "an annotation value")
        current = self.annotations.get(rule, Annotation())
        if key == ":reward":
            try:
                amount = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise _Misread(f"reward {value!r} is not a number", _index(form, 3)) from None
            if current.reward is not None:
                raise _Misread(f"rule {rule!r} has two reward annotations", _index(form, 1))
            current = current._replace(reward=amount)
        elif key in (":success", ":failure"):
            if value != "t":
                raise _Misread(f"{key} takes the literal 't'", _index(form, 3))
            current = current._replace(
                success=current.success or key == ":success",
                failure=current.failure or key == ":failure",
            )
        else:
            raise _Misread(f"unknown annotation key {key!r}", form.open + 1)
        self.annotations[rule] = current

    HANDLERS = {
        "chunk-type": _chunk_type,
        "add-dm": _add_dm,
        "goal-focus": _goal_focus,
        "p": _production,
        "spp": _annotation,
    }


def parse_model(text: str) -> ModelAST:
    """Parse model text into an AST, preserving source order."""
    try:
        return _ModelReader().read(_read_forms(_tokenize(text)))
    except _Misread as error:
        message, index = error.args
        raise ModelSyntaxError(message, *_position(text, index)) from None


# -- validation ----------------------------------------------------------------------

def _twice(what, names):
    """A diagnostic for each of names that repeats an earlier one."""
    return [f"{what} {name!r} twice" for i, name in enumerate(names) if name in names[:i]]


def _is_symbol(text):
    """One atom that does not end a slot list (so is not '==>')."""
    return _ATOM.fullmatch(text) is not None and text[-1] != ">" and text not in _ENDS_SLOTS


def _all_symbols(texts: set) -> bool:
    """Whether every one of texts is a symbol, read off a few scans of their
    join: no text is empty or holds a space, and no separator follows a '>'."""
    joined = " ".join(texts) + " "
    return (joined.count(" ") == len(texts) and "" not in texts and "> " not in joined
            and not any(char in joined for char in "\t\r\n();")
            and texts.isdisjoint(_ENDS_SLOTS))


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
    slots_of = {name: set(ctype.slots) for name, ctype in types.items()}

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
    buffer_slots = {buffer: slots_of[ctype.name]
                    for buffer, ctype in buffers.items() if ctype is not None}
    rule_names = set()
    for name, tests, binds, modifications, clearings in ast.productions:
        if name in rule_names:
            out.append(f"rule {name!r} declared twice")
        rule_names.add(name)
        # every tested value: a constant never equals a variable's name
        tested, bound = set(), set()
        for buffer, _, slot_tests in tests:
            tested.add(buffer)
            for _, value in slot_tests:
                bound.add(value)
        if len(tested) < len(tests):
            out += _twice(f"rule {name!r} tests buffer", [buffer for buffer, _, _ in tests])
        for buffer, ctype, slot_tests in tests:
            named = dict(slot_tests)
            if len(named) < len(slot_tests):
                out += _twice(f"rule {name!r} test on {buffer!r} names slot",
                              [s for s, _ in slot_tests])
            if buffer not in buffers:
                out.append(f"rule {name!r} tests undeclared buffer {buffer!r}")
            slots = slots_of.get(ctype)
            if slots is None:
                out.append(f"rule {name!r} tests unknown type {ctype!r}")
            elif not slots.issuperset(named):
                out += [f"rule {name!r} tests unknown slot {slot!r} of type {ctype!r}"
                        for slot, _ in slot_tests if slot not in slots]
        # a firing draws every !bind! before it modifies, so any modification may read it
        reads = {v for _, updates in modifications for _, v in updates} if binds else ()
        for var, provider in binds:
            symbols.add(provider)
            if not is_variable(var):
                out.append(f"rule {name!r} binds {var!r}, which is not a variable")
            elif var in bound:
                out.append(f"rule {name!r} binds {var!r}, which is already bound")
            elif var not in reads:
                out.append(f"rule {name!r} binds {var!r}, which no modification reads")
            bound.add(var)
        for buffer, updates in modifications:
            pairs.append(updates)
            named = dict(updates)
            if len(named) < len(updates):
                out += _twice(f"rule {name!r} update of {buffer!r} names slot",
                              [s for s, _ in updates])
            for slot, value in updates:
                if value not in bound and value[:1] == "=" and value[-1:] != ">":
                    out.append(
                        f"rule {name!r} updates slot {slot!r} with unbound variable {value!r}"
                    )
            if buffer in cleared and buffer not in tested:
                out.append(
                    f"rule {name!r} modifies buffer {buffer!r} without "
                    "testing it, but a rule clears that buffer"
                )
            slots = buffer_slots.get(buffer)
            if slots is not None and not slots.issuperset(named):
                out += [f"rule {name!r} updates unknown slot {slot!r} "
                        f"of type {buffers[buffer].name!r} in buffer {buffer!r}"
                        for slot, _ in updates if slot not in slots]
        for buffer, _ in modifications:  # the modified buffers, then the cleared ones
            if buffer not in buffers:
                out.append(f"rule {name!r} acts on undeclared buffer {buffer!r}")
        for buffer in clearings:
            if buffer not in buffers:
                out.append(f"rule {name!r} acts on undeclared buffer {buffer!r}")
        symbols |= bound  # the tested values and the !bind! variables

    empty = Annotation()
    for rule, annotation in ast.annotations.items():
        if rule not in rule_names:
            out.append(f"annotation targets unknown rule {rule!r}")
        if annotation == empty:
            out.append(f"annotation of rule {rule!r} is empty")
    symbols.update(rule_names, chain.from_iterable(chain.from_iterable(pairs)))
    if not _all_symbols(symbols):
        out += sorted(f"{symbol!r} is not a symbol" for symbol in symbols
                      if not _is_symbol(symbol))
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
