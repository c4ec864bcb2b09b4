"""The base of the package's report and data classes, in place of
``dataclasses``.

Every ``braidhom`` process imports all of them before any algebra runs.
Importing ``dataclasses`` loads ``inspect``, and with it ``ast``, ``dis``
and ``tokenize``: about 12 ms. Each ``@dataclass`` then writes its methods
as source text and compiles it: about 15 ms more for the package's 24
classes. Record shares one set of methods among all of them.

A subclass lists its fields as annotations, in order, each with an optional
default. A list or dict default is copied for each instance, as
``field(default_factory=list)`` made a fresh one. ``__init__`` takes the
fields positionally or by keyword, then runs ``__post_init__``. Two records
are equal when they are of the same class and their fields are equal, and a
mutable record is unhashable. ``class X(Record, frozen=True)`` hashes by its
fields and refuses assignment and deletion with FrozenRecordError.
"""


class FrozenRecordError(AttributeError):
    """An attribute of a frozen record was assigned or deleted."""


def _refuse(self, name, *value):
    raise FrozenRecordError(f"{type(self).__name__} is frozen: cannot change {name!r}")


def _hash(self):
    return hash(self._values())


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {name: own[name] for name in cls._fields if name in own}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            cls.__hash__ = _hash

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, {len(args)} given")
        state = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in state:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            state[key] = value
        for key in fields[len(args):]:
            if key not in state:
                if key not in self._defaults:
                    raise TypeError(f"{name}() missing argument {key!r}")
                default = self._defaults[key]
                state[key] = default.copy() if isinstance(default, (list, dict)) else default
        self.__dict__.update(state)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        inner = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({inner})"
