"""Exception hierarchy for the engine and its harness."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


# -- chunk store --------------------------------------------------------------

class DuplicateType(EngineError):
    pass


class DuplicateSlot(EngineError):
    pass


class UnknownType(EngineError):
    pass


class UnknownSlot(EngineError):
    pass


class DuplicateChunkName(EngineError):
    pass


class UnknownChunk(EngineError):
    pass


# -- buffer system -------------------------------------------------------------

class DuplicateBuffer(EngineError):
    pass


class UnknownBuffer(EngineError):
    pass


# -- scheduler ------------------------------------------------------------------

class TimeInPast(EngineError):
    pass


# -- model parser ----------------------------------------------------------------

class ModelSyntaxError(EngineError):
    """Malformed model text. Carries the 1-based source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


# -- engine -----------------------------------------------------------------------

class ProviderExhausted(EngineError):
    """A !bind! provider had no next value (or none was registered)."""


class UnhashableValue(EngineError):
    """A !bind! provider gave a value that cannot be hashed, such as a list."""


# -- experiment harness -------------------------------------------------------------

class MalformedMove(EngineError):
    pass


class WrongLength(EngineError):
    pass


class EmptyResults(EngineError):
    pass


class UnscorableModel(EngineError):
    """A model lacks a rule whose utility the harness reports."""
