"""The exception policy of the package.

Malformed or out-of-range input raises the built-in ``ValueError`` (the
CLI exits 3). A fit or numerical method that cannot return a number it can
defend raises ``NumericalError`` (the CLI exits 4, as for any other
``ArithmeticError``). Every fit goes through ``least_squares``, which
also refuses a fit that ends on one of its bounds; every JSON
input through ``load_json``, every JSON count through ``as_int`` and every
JSON real number through ``as_float``; a JSON config or problem holds only
the keys ``check_keys`` is given.
"""

import inspect
import json
import sys
import warnings

import numpy as np


class NumericalError(ArithmeticError):
    """A fit is degenerate, ambiguous or unconverged, or a computation lost
    the accuracy its result needs."""


class InputError(ValueError):
    """Input text that its format does not allow; the CLI names the file."""


class TableError(InputError):
    """A CSV table line that its header does not allow, or a table value
    that its dataset refuses; the CLI names the table's file even when the
    table's sidecar was read after it."""


def _refuse_constant(name: str):
    raise InputError(f"{name} is not a finite number")


def load_json(text: str):
    """The value of a JSON input. NaN, Infinity and -Infinity, which Python's
    parser takes but JSON has no place for, raise ``InputError``."""
    return json.loads(text, parse_constant=_refuse_constant)


def as_int(value, field: str) -> int:
    """The JSON count ``value`` of ``field``: an int, or a float with no
    fractional part. Any other value raises ``InputError``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def as_float(value, field: str) -> float:
    """The JSON number ``value`` of ``field`` as a float. A string, a bool, null
    or any other non-number, or a number beyond the float range (such as
    ``1e400``, which the JSON parser reads as infinity), raises ``InputError``."""
    if type(value) not in (int, float):
        raise InputError(f"{field} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise InputError(f"{field} is not a finite number")
    return float(value)


def check_keys(obj: dict, keys):
    """Raise ``InputError`` for the first key of the JSON object ``obj`` that
    is not among ``keys``, the keys its reader reads."""
    for key in obj:
        if key not in keys:
            raise InputError(f"unknown key {key!r}")


def least_squares(model, x, y, p0, bounds, what, sigma=None, maxfev=20000):
    """``curve_fit`` of ``model`` to (x, y) -> (popt, pcov). No more points
    than parameters, a fit that does not converge or starts outside ``bounds``,
    a fit that ends on a bound, or a covariance that is not finite, raises
    ``NumericalError`` naming the fit ``what``, with no warning.

    A fitted parameter ends on a finite bound b when it lies within
    1e-6 * max(1, |b|) of it: scipy's active-constraint test
    (``find_active_constraints``) at a tolerance of 1e-6. The bound, not the
    data, then fixed that parameter, so the fit is no estimate of it; the
    message names the parameter as ``model``'s signature does, its value and
    the bound."""
    # with no residual degree of freedom curve_fit's covariance is infinite
    if len(x) <= len(p0):
        raise NumericalError(
            f"{what} covariance is not finite with {len(x)} point(s) for "
            f"{len(p0)} parameter(s); the fit needs at least {len(p0) + 1} points"
        )
    from scipy.optimize import OptimizeWarning, curve_fit

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = curve_fit(
                model, x, y, p0=p0, sigma=sigma, bounds=bounds, maxfev=maxfev
            )
    except (RuntimeError, ValueError) as exc:
        raise NumericalError(f"{what} did not converge: {exc}") from exc
    names = list(inspect.signature(model).parameters)[1:]
    lower, upper = np.broadcast_arrays(*bounds, popt)[:2]
    for name, p, lo, hi in zip(names, popt, lower, upper):
        for b in (lo, hi):
            # an infinite bound is never reached, though |p - inf| <= inf holds
            if np.isfinite(b) and abs(p - b) <= 1e-6 * max(1.0, abs(b)):
                raise NumericalError(
                    f"{what} ends on a bound: {name} {p:.7g} (bound {b:.7g})"
                )
    if not np.all(np.isfinite(pcov)):
        raise NumericalError(f"{what} covariance is not finite with {len(x)} point(s)")
    return popt, pcov
