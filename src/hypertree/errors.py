"""Exception types, guard defaults, the file boundary (every input file is
read here, and every JSON output written), the CSV reader and its header
rule, JSON field readers and the subset rule.

``DEFAULT_EXACT_LIMIT`` lives here so that ``--help`` can show it without
importing the solvers, and with it ``WEIGHT_DOMAIN_GUARD`` (enforced by
``weights`` and ``structure``) and ``COUNT_WORK_GUARD``; every other guard
sits beside its one enforcer. So that ``--help`` loads no codec either,
``csv`` and ``json`` are imported only by the functions that use them.
"""

import sys

DEFAULT_EXACT_LIMIT = 9  # vertices: at most 10,584 DP states, for any k
WEIGHT_DOMAIN_GUARD = 2 ** 22  # subsets; about 1.1 GiB of dict entries
COUNT_WORK_GUARD = 2 ** 33  # distinct rows x subsets: 29-43 s at 3.4-5 ns each


class GuardLimitError(RuntimeError):
    """Raised when an operation would exceed a configured size guard.

    Guards protect against exponential blowups: exact search on too many
    vertices, a weight domain of too many subsets, a count table of too many
    cells, counting work of too many distinct rows times subsets, a parity
    sample of too many variables or cells, and a clique family of too many
    subsets. Only the exact-search limit can be raised, by the caller.
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


def csv_header(fh):
    """(names, reader): the stripped names of the header row of the CSV
    text fh, and the ``csv.reader`` over fh, left at the first body row: the
    one CSV reader and its header rule. A file without a header, a blank
    first line, an empty name or a repeated name is refused with a
    ValueError that names its line, and the name's 1-based column; so is a
    header the CSV reader refuses."""
    import csv
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise ValueError("empty CSV: missing header row")
    if not header:
        raise ValueError(f"line {reader.line_num}: empty header row")
    names = [h.strip() for h in header]
    first = {}  # each name's 1-based column
    for i, name in enumerate(names, 1):
        where = f"line {reader.line_num}, column {i}"
        if not name:
            raise ValueError(f"{where}: empty header name")
        if first.setdefault(name, i) != i:
            raise ValueError(f"{where}: header name {name!r} repeats "
                             f"column {first[name]}")
    return names, reader


def _json_object(fh, convert):
    import json
    doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    return convert(doc)


def read_json(path, convert):
    """The file's one JSON object, converted by convert, through read_input."""
    return read_input(path, _json_object, convert)


def write_json(doc: dict, path=None) -> None:
    """Write doc as indented JSON and a newline to path, or to stdout. JSON
    has no NaN or infinity, so a document that holds one opens no file."""
    import json
    try:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("a computed number left the float range; JSON "
                         "holds no NaN or infinity") from None
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def vertex_subset(vertices, n: int, sizes: range, context: str = "") -> tuple:
    """A reader's subset: the vertices sorted, then held to subset_key."""
    try:
        h = tuple(sorted(vertices))
    except TypeError:  # vertices that do not sort are shown as given
        h = tuple(vertices) if hasattr(vertices, "__iter__") else vertices
    return subset_key(h, n, sizes, context)


def subset_key(h, n: int, sizes: range, context: str = "") -> tuple:
    """The subset rule: h, a subset of [0, n) sized in ``sizes``, or a
    ValueError that begins with ``context`` and names the first fault: the
    size, a vertex not an int or ``__index__`` type (no bool) or not above
    the last, a vertex outside [0, n), or no sequence at all. A store's
    keys must ascend; a reader sorts first, through vertex_subset."""
    try:
        if len(h) not in sizes:
            span = sizes[0] if len(sizes) == 1 else f"{sizes[0]}..{sizes[-1]}"
            raise ValueError(
                f"{context}subset {h} has {len(h)} vertices, not {span}")
        prev = None
        for v in h:
            if type(v) is not int and (type(v) is bool
                                       or not hasattr(type(v), "__index__")):
                raise ValueError(
                    f"{context}subset {h} has a non-integer vertex {v!r}")
            if prev is not None and v <= prev:
                raise ValueError(f"{context}subset {h} is not strictly ascending")
            prev = v
        if h and (h[0] < 0 or h[-1] >= n):
            raise ValueError(f"{context}subset {h} has a vertex outside [0, {n})")
    except TypeError:  # no sized, indexable collection
        raise ValueError(
            f"{context}subset {h!r} is not a sequence of vertices") from None
    return h


def attached(v, anchor) -> tuple:
    """(anchor, clique): the anchor as a tuple and anchor + (v,) for
    vertex_subset, or an anchor that is no collection as both."""
    try:
        anchor = tuple(anchor)
    except TypeError:
        return anchor, anchor
    return anchor, anchor + (v,)


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


def json_list(value, field: str) -> list:
    """A list field of a parsed JSON document, refused unless it is one: a
    number, string or object raises TypeError naming the field."""
    if not isinstance(value, list):
        raise TypeError(f"{field!r} must be a list, got {type(value).__name__}")
    return value


def json_subsets(doc: dict, name: str, field: str, convert) -> dict:
    """Map the sorted ``vars`` of each object in the list doc[name] to
    convert(entry[field], field), a reader such as json_int or json_float;
    refuse repeats. The store that keeps them holds each to subset_key."""
    out = {}
    for entry in json_list(doc[name], name):
        if not isinstance(entry, dict):
            raise TypeError(f"{name!r} must list objects, got "
                            f"{type(entry).__name__}")
        vs = entry["vars"]
        if type(vs) is not list:  # json_list's test, inlined for speed
            json_list(vs, "vars")
        try:
            h = tuple(sorted(vs))
            if h in out:
                raise ValueError(f"subset {h} is listed more than once")
        except TypeError:  # a vertex that does not sort or hash: named here
            for v in vs:
                json_int(v, "vars")
            raise
        out[h] = convert(entry[field], field)
    return out
