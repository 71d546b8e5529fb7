"""The immutable value base shared by every record type of the package.

A subclass lists its fields as class annotations, in order, and gives a
field a default by assigning it in the class body.  Instances are built
from positional or keyword arguments and then checked by the class's
``__post_init__``.  They compare equal only to instances of the same
class with equal fields, hash as the tuple of their fields, refuse
assignment and deletion, and print as ``Name(field=value, ...)``.  The
instance ``__dict__`` stays, so ``functools.cached_property`` works.

Every command is a fresh process and pays for this module at start-up,
so nothing here is generated at import time: the methods are shared by
all subclasses, and only a field getter is made per class.
"""

from operator import attrgetter

_set = object.__setattr__
_MISSING = object()


class Value:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        if fields:
            # _values(obj) is the tuple of field values; attrgetter of one
            # name returns the bare value, so that case is wrapped
            get = attrgetter(*fields)
            cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__ keeps the instance's compact attribute storage,
        # which writing through self.__dict__ would give up
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Positional values for every field, from keywords and class defaults."""
        cls, fields, given = type(self), self._fields, sorted(kwargs)
        values = list(args[: len(fields)])
        for name in fields[len(args):]:
            values.append(kwargs.pop(name, getattr(cls, name, _MISSING)))
        if len(args) > len(fields) or kwargs or any(v is _MISSING for v in values):
            raise TypeError(
                f"{cls.__qualname__}({', '.join(fields)}) cannot take "
                f"{len(args)} positional arguments and the keywords {given}"
            )
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot delete {name!r}")

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"
