"""Golden CLI records: a fixed set of runs whose JSON must not change.

Each record is compared with its file under tests/golden/ after dropping
the manifest's `duration_seconds` and reducing paths to basenames.
Strings, booleans, integers and index lists must match exactly; floats
must agree to 1e-12 relative. Regenerate the files, only when a record
change is intended, with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each file, every field that moved (its path, old -> new
value and relative change) or "unchanged".
"""

import json
import math
import os
import tempfile
from pathlib import Path

import pytest

from laros.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_RTOL = 1e-12


def _runs(d):
    """(record file, argv) per golden run; later runs read earlier outputs."""
    demo, x, cert = d / "demo.mtx", d / "x.mtx", d / "certificate.json"
    runs = [
        ("plant.json", ["plant", "--kind", "two-block",
                        "--matrix-output", demo]),
        ("solve.json", ["solve", "--input", demo, "--theta", "0.5",
                        "--solution-output", x,
                        "--certificate-output", cert]),
        ("certify.json", ["certify", "--input", demo, "--solution", x,
                          "--certificate", cert, "--theta", "0.5"]),
        ("thresholds.json", ["thresholds", "--input", demo,
                             "--rows", "1,2,3", "--cols", "1,2,3"]),
        ("nmf.json", ["nmf", "--input", demo, "--theta", "0.5",
                      "--features", "2", "--w-output", d / "w.mtx",
                      "--h-output", d / "h.mtx"]),
        ("biclique.json", ["biclique", "--seed", "0", "--max-iters", "2000"]),
    ]
    return [(name, [str(t) for t in argv] + ["--output", str(d / name)])
            for name, argv in runs]


def _normalize(value):
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()
                if k != "duration_seconds"}
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, str) and os.path.isabs(value):
        return os.path.basename(value)
    return value


def generate(d):
    """Run every golden command in directory `d`; normalized records by file."""
    names = ["certificate.json"]
    for name, argv in _runs(d):
        if main(argv) != 0:
            raise RuntimeError(f"golden run failed: laros {' '.join(argv)}")
        names.append(name)
    return {name: _normalize(json.loads((d / name).read_text()))
            for name in names}


def assert_same(expected, actual, where="$"):
    if isinstance(expected, float) and isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=FLOAT_RTOL, abs_tol=0.0), \
            f"{where}: {actual!r} != {expected!r}"
        return
    assert type(actual) is type(expected), \
        f"{where}: {type(actual).__name__} != {type(expected).__name__}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            assert_same(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_same(e, a, f"{where}[{i}]")
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return generate(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_golden_record(records, name):
    expected = json.loads((GOLDEN / name).read_text())
    assert_same(expected, records[name])


def test_golden_set_complete(records):
    assert sorted(records) == sorted(p.name for p in GOLDEN.glob("*.json"))


MISSING = "<missing>"


def moves(old, new, where="$"):
    """(path, old, new) of each field that differs between two records;
    a key on one side only, or a list of another length, moves whole."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from moves(old.get(key, MISSING), new.get(key, MISSING),
                             f"{where}.{key}")
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from moves(o, n, f"{where}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield where, old, new


def describe(path, old, new):
    """One line for a moved field: path, old -> new, relative change."""
    line = f"  {path}: {old!r} -> {new!r}"
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (old, new))
    if numbers and old != 0:
        line += f" (relative change {(new - old) / abs(old):+.3e})"
    return line


def test_moves_name_each_moved_field():
    old = {"a": 1.0, "b": [1, 2], "c": {"d": "x", "e": True}, "f": 0.0}
    new = {"a": 1.5, "b": [1, 2, 3], "c": {"d": "x", "e": False}, "g": 0}
    assert list(moves(old, new)) == [
        ("$.a", 1.0, 1.5), ("$.b", [1, 2], [1, 2, 3]), ("$.c.e", True, False),
        ("$.f", 0.0, MISSING), ("$.g", MISSING, 0)]
    assert list(moves(new, new)) == []
    assert describe("$.a", 1.0, 1.5) == (
        "  $.a: 1.0 -> 1.5 (relative change +5.000e-01)")
    assert describe("$.c.e", True, False) == "  $.c.e: True -> False"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, record in generate(Path(tmp)).items():
            path = GOLDEN / name
            text = json.dumps(record, indent=2, sort_keys=True) + "\n"
            if not path.exists():
                path.write_text(text)
                print(f"wrote {path}: new file")
                continue
            old = json.loads(path.read_text())
            path.write_text(text)
            lines = [describe(*m) for m in moves(old, json.loads(text))]
            print(f"wrote {path}: " + (f"{len(lines)} moved field(s)"
                                       if lines else "unchanged"))
            for line in lines:
                print(line)
