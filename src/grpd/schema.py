"""Shape checks for the JSON input files.

Every loader reads its fields through these helpers, so a malformed input
raises `SchemaError` with a message naming the field at fault.  `kind` is
dict, list, str or int (JSON `true`/`false` do not count), or object for
any value.
"""

from .errors import SchemaError
from .exactlin import Field, _dense

_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}
_REQUIRED = object()


def check(x, kind, what):
    """x itself, when it is a JSON value of the given kind."""
    if not isinstance(x, kind) or (kind is int and isinstance(x, bool)):
        raise SchemaError(f"{what} must be {_NAMES[kind]}, got {x!r}")
    return x


def get(d, key, kind, what, default=_REQUIRED):
    """Field `key` of the JSON object d, of the given kind; `default` when absent."""
    if key not in check(d, dict, what):
        if default is _REQUIRED:
            raise SchemaError(f"{what} has no field {key!r}")
        return default
    return check(d[key], kind, f"{key!r} in {what}")


def items(xs, kind, what, n=None):
    """The JSON list xs, whose entries all have the given kind; n entries when n is given."""
    check(xs, list, what)
    if n is not None and len(xs) != n:
        raise SchemaError(f"{what} has {len(xs)} entries, wanted {n}")
    if kind is not object:  # any JSON value is an object
        for i, x in enumerate(xs):
            check(x, kind, f"{what} entry {i}")
    return xs


def field(char, what):
    """The coefficient field of characteristic `char`."""
    try:
        return Field(char)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def vec(field, xs, n, what):
    """A list of n coefficients, as elements of `field`, read through `terms`."""
    return _dense(field, dict(terms(field, xs, n, what)), n)


def terms(field, xs, n, what):
    """The (k, c) pairs of the nonzero entries of a list of n coefficients, c in `field`.

    An entry written as the int 0 or the string "0" is skipped before it is coerced.
    """
    items(xs, object, what, n)
    try:
        return [(k, c) for k, x in enumerate(xs)
                if not (x == "0" or type(x) is int and not x) and (c := field(x))]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad coefficient in {what}: {exc}") from exc
