"""The base classes of conwon's input errors and records, in a module that imports nothing.

A :class:`Record` subclass lists its fields in ``__slots__`` and sets them,
in that order, in ``__init__`` through :meth:`Record._assign`.  Equality
(same class, equal fields), ``repr`` (``Name(field=value, ...)``) and
``copy``/``pickle`` (the class called on the fields) are read off
``__slots__``; a slot whose name starts with ``_`` caches a value derived
from the fields and takes no part in them.  A record is mutable and
unhashable; a :class:`FrozenRecord` refuses writes and hashes as the tuple
of its fields, so it raises ``TypeError`` when a field is unhashable.
"""


class InputError(Exception):
    """Malformed or out-of-range input: the CLI reports it in one line, exit 2."""


def read_text(path) -> str:
    """The text of a UTF-8 file; other bytes are an :class:`InputError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path, error) -> dict:
    """The JSON object in a UTF-8 file; malformed JSON or another value is ``error``, naming the file."""
    import json  # only the file loaders need it

    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{path}: expected a JSON object")
    return data


class Record:
    """A small value class with its fields in ``__slots__``."""

    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """An immutable, hashable :class:`Record`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value=None):  # also __delattr__
        raise AttributeError(f"{type(self).__name__} records are immutable")

    __delattr__ = __setattr__
