"""Exception types shared across the package, and the text-file reader
that turns a decoding failure into an error naming the file and line."""

import codecs
from pathlib import Path


def read_utf8(path) -> str:
    """The text of `path`, a leading UTF-8 byte-order mark skipped and line
    ends read as ``\\n`` (as `open` reads them). A byte sequence that is not
    UTF-8 raises ValueError ``PATH:LINE: not valid UTF-8``."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = unify_newlines(data[: exc.start].decode("utf-8")).count("\n") + 1
        raise ValueError(f"{path}:{line}: not valid UTF-8") from None
    return unify_newlines(text)


def unify_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(ArithmeticError):
    """A value that must be finite is NaN or infinite."""


class StateError(RuntimeError):
    """An operation was called in an invalid order (e.g. double backward)."""


class ParseError(ValueError):
    """Malformed CoNLL-U input; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StructureError(ValueError):
    """A dependency parse does not form a valid tree."""


class VocabError(ValueError):
    """A token id falls outside the embedding vocabulary."""


class CoverageError(ValueError):
    """A relation tensor does not cover every ordered node pair."""


class ConfigError(ValueError):
    """Configuration and loaded parameters disagree."""
