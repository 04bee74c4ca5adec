"""Malformed input, fuzzed: every command on a cut or corrupted input file.

Each example takes one small valid input of one command, truncates it or
replaces one of its bytes, and runs the command in process through
``main(argv)``. The command must end with an exit code, never an escaped
exception: 0 when the change left a valid input, 2 for a validation error,
3 for a guard refusal, 4 for an I/O error. A validation or I/O error prints
``error:`` and the path of the input at fault; a guard refusal prints
``error:`` and the limit it enforces.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree.cli import main

# Compact JSON: with no space after a colon, one replaced byte cannot turn
# a count such as "n": 3 into "n":13, a sample of millions of rows. The
# largest sample one byte can ask for is n=9 of the targets: 147,456 rows.
COMPACT = {"separators": (",", ":")}

CSV = b"x0,x1,x2\n0,1,1\n1,0,1\n1,1,0\n0,0,0\n2,1,1\n"
SIDECAR = json.dumps({"arities": {"x0": 3, "x2": 2}}, **COMPACT).encode()
STRUCTURE = json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                        "attachments": [{"v": 2, "anchor": [1]}]},
                       **COMPACT).encode()
WEIGHTS = json.dumps({"k": 1, "n": 3, "weights": [
    {"vars": [0], "w": -0.5}, {"vars": [0, 1], "w": 0.5},
    {"vars": [1, 2], "w": 0.25}]}, **COMPACT).encode()
JOINT = json.dumps({"arities": [2, 2, 2], "probs": [0.125] * 8},
                   **COMPACT).encode()
BIASES = json.dumps({"k": 1, "n": 3, "Q": 4,
                     "biases": [{"vars": [0, 1], "p": 2}]}, **COMPACT).encode()
TARGETS = json.dumps({"k": 1, "n": 3, "q_grid": 8,
                      "targets": [{"vars": [0, 2], "w": 0.5}]},
                     **COMPACT).encode()

# (argv, the valid files, the file to corrupt, the files an error may name).
# A sidecar is checked against the header and the codes of the CSV it
# describes, so a sidecar naming a missing column or declaring an arity
# below an observed code is reported on the CSV.
CASES = [
    (["weights", "{data}", "--k", "2", "--arities", "{side}"],
     {"data.csv": CSV, "side.json": SIDECAR}, "data.csv", ["data.csv"]),
    (["weights", "{data}", "--k", "2", "--arities", "{side}"],
     {"data.csv": CSV, "side.json": SIDECAR}, "side.json",
     ["side.json", "data.csv"]),
    (["learn", "{w}"], {"w.json": WEIGHTS}, "w.json", ["w.json"]),
    (["learn", "{jt}", "--k", "1", "--solver", "exact"],
     {"jt.json": JOINT}, "jt.json", ["jt.json"]),
    (["eval", "{data}", "{s}", "--model-out", "{model}"],
     {"data.csv": CSV, "s.json": STRUCTURE}, "data.csv", ["data.csv"]),
    (["eval", "{data}", "{s}", "--model-out", "{model}"],
     {"data.csv": CSV, "s.json": STRUCTURE}, "s.json", ["s.json"]),
    (["gen-parity", "{spec}", "--out", "{out}"],
     {"spec.json": BIASES}, "spec.json", ["spec.json"]),
    (["gen-parity", "{spec}", "--out", "{out}"],
     {"spec.json": TARGETS}, "spec.json", ["spec.json"]),
]
ROLES = {"data": "data.csv", "side": "side.json", "w": "w.json",
         "jt": "jt.json", "s": "s.json", "spec": "spec.json"}


# Bytes that keep the syntax of a number or mark a field or record boundary.
SIGNIFICANT = st.sampled_from(b'0129-.e,:"[]{}\n')


@st.composite
def corrupted(draw, text: bytes) -> bytes:
    """text cut short, or with one byte replaced by a significant or any byte."""
    at = draw(st.integers(0, len(text) - 1))
    if draw(st.booleans()):
        return text[:at]
    byte = draw(st.one_of(SIGNIFICANT, st.integers(0, 255)))
    return text[:at] + bytes([byte]) + text[at + 1:]


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_corrupted_input_ends_in_an_exit_code(tmp_path_factory, case, data):
    argv, files, target, named = case
    tmp = tmp_path_factory.mktemp("fuzz")
    for name, text in files.items():
        if name == target:
            text = data.draw(corrupted(text), label=name)
        (tmp / name).write_bytes(text)
    paths = {role: tmp / name for role, name in ROLES.items()}
    paths.update(model=tmp / "model.json", out=tmp / "sample.csv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**paths) for a in argv])
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        return
    assert err.startswith("error: "), err
    if code == 3:
        assert "exceeds" in err or "over" in err, err
    else:
        assert any(str(tmp / name) in err for name in named), err
