"""Immutable records without ``dataclasses``, whose import loads ``inspect``.

A :class:`Record` names its fields in ``__slots__`` and sets them once, through
``_set``, in its explicit ``__init__``; assigning to one afterwards raises
``AttributeError``.  Equality, hashing, ``repr`` and ``_replace`` read the
fields only: a slot whose name starts with ``_``, such as a memo, is not one.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

__all__ = ["Record", "set_field"]

set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._values = attrgetter(*cls._fields)

    def _set(self, *values: Any) -> None:
        """Set the fields to ``values``, in ``__slots__`` order."""
        for name, value in zip(self._fields, values):
            set_field(self, name, value)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"

    def _replace(self, **changes: Any) -> Any:
        """A copy with ``changes``, built, and so checked, by ``__init__``."""
        return type(self)(**{n: getattr(self, n) for n in self._fields} | changes)
