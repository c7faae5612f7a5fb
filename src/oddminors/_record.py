"""Frozen value records: the one base class behind every result type, and
the report every checker returns."""

from __future__ import annotations


class _RecordType(type):
    """Builds a record class whose ``__slots__`` are its fields (its own
    annotations, in order).  ``_setters`` holds each field slot's
    ``__set__``, which fills the slot past ``__setattr__``.
    """

    def __new__(mcs, name: str, bases: tuple, ns: dict) -> type:
        fields = tuple(ns.get("__annotations__", ()))
        ns["_fields"] = fields
        ns["__slots__"] = fields
        cls = super().__new__(mcs, name, bases, ns)
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        return cls


class Record(metaclass=_RecordType):
    """Immutable record whose fields are the subclass's annotations, in order.

    Records take exactly their fields, by position, equal only records of
    the same class with equal fields, hash over the fields, print as
    ``Name(field=value, ...)`` and raise ``AttributeError`` on assignment
    and deletion.  The fields live in ``__slots__``: a record has no
    ``__dict__``.
    """

    def __init__(self, *args: object) -> None:
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes {len(self._fields)} arguments but {len(args)} were given")
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class VerificationReport(Record):
    """Outcome of an independent re-check.

    ``failures`` holds one human-readable line per violated property; an
    empty tuple means every checked property held.
    """

    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        if self.passed:
            return "PASS\n"
        return "FAIL\n" + "\n".join(f"  - {f}" for f in self.failures) + "\n"
