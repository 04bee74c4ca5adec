"""Shared exception types, guard defaults and the JSON field readers.

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


def json_subsets(entries, field: str, convert) -> dict:
    """Map each entry's sorted ``vars`` to convert(entry[field]); refuse repeats."""
    out = {}
    for entry in entries:
        vs = entry["vars"]
        for v in vs:
            if type(v) is not int:  # json_int's test, inlined for speed
                json_int(v, "vars")
        h = tuple(sorted(vs))
        if h in out:
            raise ValueError(f"subset {h} is listed more than once")
        out[h] = convert(entry[field])
    return out
