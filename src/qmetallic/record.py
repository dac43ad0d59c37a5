"""Immutable records: the part of `dataclasses` that the package uses.

`@record` makes a class whose annotated fields list its data into an
immutable value type.  It installs

- an `__init__` that takes the fields in order, positionally or by
  keyword, with the class-level value of a field as its default, and
  then calls `__post_init__` when the class has one;
- field-wise `__eq__` (NotImplemented against any other class) and a
  matching `__hash__`;
- a `Name(a=1, b=2)` repr;
- `__setattr__` and `__delattr__` that raise AttributeError.  A
  `__post_init__` may still normalise a field with `object.__setattr__`.

The methods are closures over the field names, so decorating a class
neither runs `exec` nor imports `inspect`, as `dataclasses` does; that
keeps both off the import path of every command.
"""

from __future__ import annotations

from operator import attrgetter


def _frozen_assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    values_of = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, "
                            f"{len(args)} given")
        state = self.__dict__
        state.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in defaults:
                state[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"argument {next(iter(kwargs))!r}")
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values_of(self) == values_of(other)

    def __hash__(self):
        return hash(values_of(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = _frozen_assign
    cls.__delattr__ = _frozen_delete
    return cls
