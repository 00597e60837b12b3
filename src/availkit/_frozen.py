"""The base of availkit's value types: immutable classes with slots.

A value type lists its constructor's arguments, in order, as ``_fields``
and stores each one with ``setfield``, past the frozen ``__setattr__``.
Equality, hashing, ``repr``, pickling and ``replace`` key on ``_fields``,
so slots outside it (derived numbers) take part in none of them.

A value built once per component or per report row (``Component``,
``report.ComponentLine``) stores its slots through the slots' own
descriptors instead, each ``__set__`` bound once at import beside its
class, as ``_set_id = Component.id.__set__``. That skips the look-up of
the slot by name that ``setfield`` makes on every store. Reading the
descriptor off the class at each store (``Component.id.__set__(self, v)``)
saves nothing on CPython 3.10 to 3.13, so the bound form is the one used.
"""

from __future__ import annotations

from typing import Any, TypeVar

_V = TypeVar("_V", bound="Frozen")

setfield = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def replace(self: _V, **changes: Any) -> _V:
        """A copy with ``changes`` applied, built through ``__init__``, so
        derived numbers are computed afresh; an unknown name is a TypeError."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
