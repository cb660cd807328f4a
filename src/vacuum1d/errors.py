"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; everything derives from :class:`VacuumError` so the command-line
layer can catch the lot in one place and translate to exit codes.
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
