"""Immutable records: a subclass declares its fields as class annotations,
in constructor order, and a class attribute named after a field is its
default.  A record takes its fields by position or by keyword, runs
``_check`` and then refuses assignment, though a ``cached_property``
still fills its ``__dict__``; a copy or a pickle takes the fields alone.
A subclass of a record extends its base's fields and defaults.
Equality, hashing and the repr read the fields."""

from __future__ import annotations


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f: cls.__dict__[f] for f in own if f in cls.__dict__}
        cls._fields, cls._defaults = cls._fields + own, {**cls._defaults, **defaults}

    def __init__(self, *args, **kwargs) -> None:
        fields, values = self._fields, self.__dict__
        if kwargs or len(args) != len(fields):  # else every field by position
            values.update(self._defaults, **kwargs)
        values.update(zip(fields, args))
        if (
            len(args) > len(fields)
            or len(values) != len(fields)
            or kwargs and not kwargs.keys() <= set(fields[len(args) :])
        ):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        self._check()

    def _check(self) -> None:
        """Refuse inconsistent fields; a subclass overrides it."""

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __getstate__(self) -> dict:
        """The fields alone, so a copy or a pickle carries no cached value."""
        return {f: self.__dict__[f] for f in self._fields}

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
