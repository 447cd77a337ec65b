"""One immutable base for the package's record classes.

A record declares its fields in ``__slots__`` and inherits one constructor,
which binds positional arguments to the fields in order, then keywords.  A
record writes its own ``__init__`` only to check or convert its input; that
``__init__`` ends in a call to ``Record.__init__``, the one place that
stores fields.  Like a frozen dataclass, a record refuses assignment and
deletion, equals only records of its own class with equal fields, hashes
its fields and prints as ``Name(field=value, ...)``.  It does not import
``dataclasses``, which loads ``inspect``, ``ast`` and ``dis`` and builds
every class through ``exec``, at a cost of about 20 ms on every call's
start-up.
"""

from operator import attrgetter

# assignment is refused on records, so fields are stored past it
_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, compare=None, **kwargs):
        # ``compare`` names the fields that equality and the hash read when
        # that is not all of them; attrgetter reads them in one C call
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*(compare or cls.__slots__))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if not kwargs and len(args) == len(names):
            # hot records are built positionally
            for name, value in zip(names, args):
                _set(self, name, value)
            return
        title = type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(
                f"{title}() takes {len(names)} arguments but {len(args)} were given"
            )
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{title}() got multiple values for {name!r}")
            _set(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{title}() missing field {name!r}")
            _set(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(
                f"{title}() got an unexpected keyword {next(iter(kwargs))!r}"
            )

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
