"""Exception types, guard defaults, the file boundary (every input file is
read here, and every JSON output written), JSON field readers and the
subset rule.

Guard defaults live here, beside the error they raise, so the command line
can show them without importing the modules that enforce them.
"""

import json
import sys

DEFAULT_EXACT_LIMIT = 9  # vertices: at most 10,584 DP states, for any k
WEIGHT_DOMAIN_GUARD = 2 ** 22  # subsets; about 1.1 GiB of dict entries


class GuardLimitError(RuntimeError):
    """Raised when an operation would exceed a configured size guard.

    Guards protect against exponential blowups: exact search on too many
    vertices, a weight domain of too many subsets, a count table of too many
    cells, a parity sample of too many variables or cells, and a clique
    family of too many subsets. Only the exact-search limit can be raised,
    by the caller.
    """


def read_input(path, parse, *args):
    """Open an input file once and return parse(fh, *args). A missing field,
    a value of the wrong type or an invalid value found while parsing (bad
    or too deeply nested JSON and a bad CSV record included) becomes a
    ValueError that begins with the path."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            return parse(fh, *args)
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"{path}: malformed field: {exc}") from None
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _json_object(fh, convert):
    doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    return convert(doc)


def read_json(path, convert):
    """The file's one JSON object, converted by convert, through read_input."""
    return read_input(path, _json_object, convert)


def write_json(doc: dict, path=None) -> None:
    """Write doc as indented JSON and a newline to path, or to stdout."""
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def is_vertex(v) -> bool:
    """An int or ``__index__`` type, such as a NumPy integer, but no bool."""
    return type(v) is not bool and hasattr(type(v), "__index__")


def subset_refusal(h: tuple, n: int, sizes: range) -> str | None:
    """h's first fault, or None: a size not in ``sizes``, then a vertex not
    ``is_vertex`` or not above the last, then a vertex outside [0, n)."""
    if len(h) not in sizes:
        span = sizes[0] if len(sizes) == 1 else f"{sizes[0]}..{sizes[-1]}"
        return f"subset {h} has {len(h)} vertices, not {span}"
    prev = None
    for v in h:
        if type(v) is not int and not is_vertex(v):
            return f"subset {h} has a non-integer vertex {v!r}"
        if prev is not None and v <= prev:
            return f"subset {h} is not strictly ascending"
        prev = v
    if h and (h[0] < 0 or h[-1] >= n):
        return f"subset {h} has a vertex outside [0, {n})"
    return None


def json_int(value, field: str) -> int:
    """An integer field of a parsed JSON document, refused unless it is one.

    ``int()`` would truncate 1.9 to 1 and accept true and "2"; a float, a
    bool or a string raises TypeError naming the field.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{field!r} must be an integer, got {value!r}")
    return value


def json_float(value, field: str) -> float:
    """A number field of a parsed JSON document, as a float.

    ``float()`` would accept true and "0.5"; a bool, a string or any other
    non-number raises TypeError naming the field. An integer too large for
    a float raises ValueError.
    """
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{field!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{field!r} is an integer outside the float range") from None


def json_subsets(entries, field: str, convert) -> dict:
    """Map each entry's sorted ``vars`` to convert(entry[field], field), a
    reader such as json_int or json_float; refuse repeats."""
    out = {}
    for entry in entries:
        vs = entry["vars"]
        for v in vs:
            if type(v) is not int:  # json_int's test, inlined for speed
                json_int(v, "vars")
        h = tuple(sorted(vs))
        if h in out:
            raise ValueError(f"subset {h} is listed more than once")
        out[h] = convert(entry[field], field)
    return out
