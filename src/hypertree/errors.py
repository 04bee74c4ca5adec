"""Shared exception types, guard defaults and the JSON integer check.

Guard defaults live here, beside the error they raise, so the command line
can show them without importing the modules that enforce them.
"""

DEFAULT_CUBE_LIMIT = 14


class GuardLimitError(RuntimeError):
    """Raised when an operation would exceed a configured size guard.

    Guards protect against exponential blowups (exact search on too many
    vertices, full-joint enumeration over too many cells, parity samples
    with too many rows). The exact-search and cube limits can be raised
    explicitly by the caller.
    """


def json_int(value, field: str) -> int:
    """An integer field of a parsed JSON document, refused unless it is one.

    ``int()`` would truncate 1.9 to 1 and accept true and "2"; a float, a
    bool or a string raises TypeError naming the field.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{field!r} must be an integer, got {value!r}")
    return value
