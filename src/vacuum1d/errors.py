"""Exception types, input rules and the result-record base shared across
the package.

Every failure mode that callers are expected to branch on gets its own
class; everything derives from :class:`VacuumError` so the command-line
layer can catch the lot in one place and translate to exit codes.
Every module that defines a record imports this one, so :class:`Record`
lives here and puts no module on the cold path.
"""


class VacuumError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(VacuumError):
    """A parameter is outside its documented range (non-positive length,
    negative damping, empty grid, ...)."""


class OutOfDomain(VacuumError):
    """A spatial point lies outside the open domain of the geometry."""


class AtEigenvalue(VacuumError):
    """A frequency coincides with an eigenvalue within tolerance, where a
    counting decomposition is genuinely ambiguous."""


class ContinuousSpectrum(VacuumError):
    """The operation needs a discrete spectrum but the geometry has a
    continuum (half-line)."""


class UnsupportedGeometry(VacuumError):
    """The requested method is not defined for this geometry or boundary
    condition combination."""


class NonConvergent(VacuumError):
    """A series failed to settle to the requested tolerance."""


# The input rules: every public entry passes its scalars and counts through
# these, and its points through spectrum.as_point, so each has one definition.

_INF = float("inf")


def as_float(value: object, name: str) -> float:
    """``value`` as a Python float (no float32 rounding is carried on), once
    it is one :class:`numbers.Real`: an int, a float or a numpy scalar, nan
    and inf included.  An array (0-d too), a list, a string, a complex number
    or an int past the float range raises :class:`InvalidParameter`."""
    if type(value) is not float and type(value) is not int:
        import numbers

        if not isinstance(value, numbers.Real):
            raise InvalidParameter(f"{name} must be one real number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidParameter(f"{name} is past the float range") from None


def as_real(value: object, name: str, positive: bool = False) -> float:
    """The scalar rule: :func:`as_float`, finite, and above zero where
    ``positive`` is set, or :class:`InvalidParameter`."""
    if type(value) is not float:
        value = as_float(value, name)
    if 0.0 < value < _INF if positive else -_INF < value < _INF:
        return value
    kind = "positive and finite" if positive else "finite"
    raise InvalidParameter(f"{name} must be {kind}, not {value!r}")


def as_count(value: object, name: str) -> int:
    """The count rule: :func:`as_real`, whole, returned as an int (so 2.0
    is the count 2), or :class:`InvalidParameter`."""
    number = as_real(value, name)
    if type(value) is int:
        return value
    if number != int(number):
        raise InvalidParameter(f"{name} must be a whole number, not {number!r}")
    return int(number)


class _DataclassProtocol:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a record class
    (PEP 557), made by the :mod:`dataclasses` module on first access, from
    the class's annotations and defaults, and then set on the class."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, record: object, cls: type) -> object:
        if cls is Record:
            raise AttributeError(self.name)
        # a record's subclass shares its fields, as a dataclass's does
        cls = next(klass for klass in cls.__mro__ if Record in klass.__bases__)
        import dataclasses

        body = {name: cls.__dict__[name] for name in cls.__match_args__ if name in cls.__dict__}
        body.update(__annotations__=cls.__annotations__, __module__=cls.__module__,
                    __qualname__=cls.__qualname__)
        twin = dataclasses.dataclass(type(cls.__name__, (), body), frozen=cls._frozen)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        return cls.__dict__[self.name]


# A record's __eq__ and __hash__ as the dataclass decorator writes them, one
# attribute load a field: a geometry is a key of the mode sums' cache, and
# hashing one through operator.attrgetter takes about a fifth longer.
_METHODS = {
    "__eq__": "def __eq__(self, other):\n"
              " if other.__class__ is self.__class__:\n"
              "  return ({mine}) == ({theirs})\n"
              " return NotImplemented\n",
    "__hash__": "def __hash__(self):\n return hash(({mine}))\n",
}


def _compiled(cls: type, name: str):
    """``cls``'s method ``name`` from :data:`_METHODS`, compiled on the
    first call and set on the class, so a class never compared or hashed
    compiles neither."""
    mine = "".join(f"self.{field}, " for field in cls.__match_args__)
    namespace: dict = {}
    exec(_METHODS[name].format(mine=mine, theirs=mine.replace("self.", "other.")), namespace)
    setattr(cls, name, namespace[name])
    return namespace[name]


class Record:
    """Base of the package's result records, which behave as the frozen
    dataclasses they were without importing :mod:`dataclasses` at import.

    A subclass annotates its fields in order, with defaults as class
    attributes, and writes its ``__init__``.  The base gives it
    ``__match_args__``, equality and hashing over the field tuple (only
    between records of one class), the dataclass ``__repr__``,
    ``__replace__`` (:func:`copy.replace`), and a ``__setattr__`` and
    ``__delattr__`` that raise :class:`dataclasses.FrozenInstanceError`;
    ``frozen=False`` in the class statement leaves it mutable and
    unhashable instead.  A record's own subclass keeps its fields and
    methods, as a dataclass's undecorated subclass does.
    ``__dataclass_fields__`` and
    ``__dataclass_params__`` are built on first access, so
    :func:`dataclasses.replace`, ``fields``, ``asdict``, ``astuple`` and
    ``is_dataclass`` work on every record.  Pickling stores ``__dict__``.
    """

    __dataclass_fields__ = _DataclassProtocol()
    __dataclass_params__ = _DataclassProtocol()

    def __init_subclass__(cls, frozen: bool = True, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if Record not in cls.__bases__:
            return  # a record's subclass keeps its fields and methods
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        cls._frozen = frozen
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other: object) -> bool:
        return _compiled(self.__class__, "__eq__")(self, other)

    def __hash__(self) -> int:
        return _compiled(self.__class__, "__hash__")(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __replace__(self, /, **changes: object) -> "Record":
        fields = {name: getattr(self, name) for name in self.__match_args__}
        return self.__class__(**fields | changes)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
