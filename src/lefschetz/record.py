"""One immutable base for the package's record classes.

A record lists its fields in ``__slots__`` and writes its own ``__init__``,
which stores each field with ``object.__setattr__``.  Like a frozen
dataclass, a record refuses assignment and deletion, equals only records of
its own class with equal fields, hashes its fields and prints as
``Name(field=value, ...)``.  It does not import ``dataclasses``, which loads
``inspect``, ``ast`` and ``dis`` and builds every class through ``exec``, at
a cost of about 20 ms on every call's start-up.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, compare=None, **kwargs):
        # ``compare`` names the fields that equality and the hash read when
        # that is not all of them; attrgetter reads them in one C call
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*(compare or cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # the default pickling would restore the slots through __setattr__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
