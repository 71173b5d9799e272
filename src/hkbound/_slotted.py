"""Equality, hash, repr and pickling for the package's slotted value classes,
without the methods a dataclass writes out and compiles when it is defined.
Fields are named in ``__match_args__`` in ``__init__``'s order and stored by
``setfields``; assignment raises.  Values of two classes are never equal."""

from operator import attrgetter


def setfields(obj, *values) -> None:
    for name, value in zip(obj.__slots__, values):
        object.__setattr__(obj, name, value)


class Slotted:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__match_args__)  # the fields, a tuple when there are two or more

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))
