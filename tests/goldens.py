"""Command line shared by the golden-file tests (``test_env_golden.py``,
``test_train_golden.py``).

Run such a module directly to regenerate its golden file, or with
``--check`` to recompute every run and compare it with the file at
``==``: the check prints nothing and exits 0 when every value matches,
and otherwise names the first run, key and step that differ, says how
many values differ and by how much at most, and exits 1. The pytest
tests compare at a tolerance instead, so that other BLAS kernels pass;
``--check`` is how a refactor shows that it keeps every bit on the
machine and settings the file was made with, and how far a change of
behaviour moved the file.
"""
import itertools
import json
import math
import sys


def _flat(value):
    """The floats of a step's value, a float or a list of floats."""
    return value if isinstance(value, list) else [value]


def compare(golden: dict, compute):
    """(first difference, values that differ, values compared, largest
    relative difference) of compute(run) against golden[run] over every
    run. The first difference reads 'run: key, step i: value != golden
    value', or is None when every value matches; a missing value differs
    by an infinite amount."""
    first, differ, total, largest = None, 0, 0, 0.0
    for name, want in golden.items():
        got = compute(name)
        for key, values in want.items():
            for step, (have, expect) in enumerate(
                    itertools.zip_longest(got[key], values)):
                if have != expect and first is None:
                    first = (f"{name}: {key}, step {step}: {have!r} != "
                             f"golden {expect!r}")
                for a, b in itertools.zip_longest(
                        _flat(have), _flat(expect)):
                    total += 1
                    if a == b:
                        continue
                    differ += 1
                    rel = (math.inf if a is None or b is None or b == 0.0
                           else abs(a - b) / abs(b))
                    largest = max(largest, rel)
    return first, differ, total, largest


def main(path, names, compute) -> int:
    """Regenerate the golden file at path from compute(name) for every
    name, or with --check compare against it."""
    if sys.argv[1:] not in ([], ["--check"]):
        print(f"usage: {sys.argv[0]} [--check]", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--check"]:
        first, differ, total, largest = compare(json.loads(path.read_text()),
                                                compute)
        if first is not None:
            print(first, file=sys.stderr)
            print(f"{differ} of {total} values differ, largest relative "
                  f"difference {largest:.3g}", file=sys.stderr)
            return 1
        return 0
    path.write_text(json.dumps({name: compute(name) for name in names},
                               indent=1) + "\n")
    print(f"wrote {path}")
    return 0
