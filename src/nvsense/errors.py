"""The exception policy: bad input raises ``ValueError`` (the CLI exits 3),
a fit or computation that cannot defend its result ``NumericalError`` (exit
4). Fits go through ``least_squares``, JSON through ``read_object``."""

import inspect
import json
import sys
import warnings

import numpy as np


class NumericalError(ArithmeticError):
    """A degenerate, ambiguous or unconverged fit, or a lost accuracy."""


class InputError(ValueError):
    """Input that its format does not allow; the CLI names its file."""


class TableError(InputError):
    """A CSV line or value that a table refuses; the CLI names its file."""


def _refuse_constant(name: str):
    raise InputError(f"{name} is not a finite number")


def load_json(text: str):
    """A JSON text's value; NaN and infinities raise ``InputError``."""
    return json.loads(text, parse_constant=_refuse_constant)


def as_int(value, field: str) -> int:
    """The JSON count ``value`` of ``field``: an int, or a whole float."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def as_float(value, field: str) -> float:
    """The JSON number ``value`` of ``field``, in the float range, as a float."""
    if type(value) not in (int, float):
        raise InputError(f"{field} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise InputError(f"{field} is not a finite number")
    return float(value)


REQUIRED = object()
POSITIVE = (lambda x: x > 0, "must be > 0")


def read_object(obj, schema: dict) -> list:
    """The values, in ``schema``'s order, of ``obj``, a JSON value: not an
    object, or with a key no row reads, it raises ``InputError``. A row
    ``key: (reader, default, *rules)`` reads the key, or ``default`` if it
    is absent (``REQUIRED``: ``KeyError``), with ``reader(v, key)`` (None:
    as it is); a rule ``(test, words)`` refuses a value failing ``test``:
    ``InputError("<key> <words>, got <the JSON value>")``."""
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in schema:
            raise InputError(f"unknown key {key!r}")
    values = []
    for key, (reader, default, *rules) in schema.items():
        raw = obj[key] if default is REQUIRED else obj.get(key, default)
        value = raw if reader is None else reader(raw, key)
        for test, words in rules:
            if not test(value):
                raise InputError(f"{key} {words}, got {raw!r}")
        values.append(value)
    return values


def least_squares(model, x, y, p0, bounds, what, sigma=None, maxfev=20000):
    """``curve_fit`` of ``model`` to (x, y) -> (popt, pcov), or, with no
    warning, ``NumericalError`` naming ``what``: no more points than
    parameters, no convergence, a start outside ``bounds`` or an end on one
    (within 1e-6 * max(1, |b|) of a bound b, as scipy tests a bound),
    a covariance that is not finite, or a parameter it cannot fix."""
    # no residual degree of freedom: curve_fit's covariance is infinite
    if len(x) <= len(p0):
        raise NumericalError(
            f"{what} covariance is not finite with {len(x)} point(s) for "
            f"{len(p0)} parameter(s); the fit needs at least {len(p0) + 1} points"
        )
    from scipy.optimize import OptimizeWarning, curve_fit

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = curve_fit(model, x, y, p0=p0, sigma=sigma, bounds=bounds, maxfev=maxfev)
    except (RuntimeError, ValueError) as exc:
        raise NumericalError(f"{what} did not converge: {exc}") from exc
    names = list(inspect.signature(model).parameters)[1:]
    lower, upper = np.broadcast_arrays(*bounds, popt)[:2]
    for name, p, lo, hi in zip(names, popt, lower, upper):
        for b in (lo, hi):
            # an infinite bound is never reached, though |p - inf| <= inf holds
            if np.isfinite(b) and abs(p - b) <= 1e-6 * max(1.0, abs(b)):
                raise NumericalError(f"{what} ends on a bound: {name} {p:.7g} (bound {b:.7g})")
    if not np.all(np.isfinite(pcov)):
        raise NumericalError(f"{what} covariance is not finite with {len(x)} point(s)")
    # pcov scales with the residual (all 0 if exact); else a 0 marks, in a
    # bounded fit, a parameter that the data leave free
    for name, variance in zip(names, np.diag(pcov)):
        if np.any(pcov) and not variance > 0:
            raise NumericalError(f"{what} cannot fix {name}: its variance is 0")
    return popt, pcov
