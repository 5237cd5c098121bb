"""Command line shared by the golden-file tests (``test_env_golden.py``,
``test_train_golden.py``).

Run such a module directly to regenerate its golden file, or with
``--check`` to recompute every run and compare it with the file at
``==``: the check prints nothing and exits 0 when every value matches,
and otherwise names the first run, key and step that differ and exits
1. The pytest tests compare at a tolerance instead, so that other BLAS
kernels pass; ``--check`` is how a refactor shows that it keeps every
bit on the machine and settings the file was made with.
"""
import itertools
import json
import sys


def first_difference(golden: dict, compute):
    """'run: key, step i: value != golden value' for the first value that
    compute(run) gives differently from golden[run], else None."""
    for name, want in golden.items():
        got = compute(name)
        for key, values in want.items():
            for step, (have, expect) in enumerate(
                    itertools.zip_longest(got[key], values)):
                if have != expect:
                    return (f"{name}: {key}, step {step}: {have!r} != "
                            f"golden {expect!r}")
    return None


def main(path, names, compute) -> int:
    """Regenerate the golden file at path from compute(name) for every
    name, or with --check compare against it."""
    if sys.argv[1:] not in ([], ["--check"]):
        print(f"usage: {sys.argv[0]} [--check]", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--check"]:
        diff = first_difference(json.loads(path.read_text()), compute)
        if diff is not None:
            print(diff, file=sys.stderr)
            return 1
        return 0
    path.write_text(json.dumps({name: compute(name) for name in names},
                               indent=1) + "\n")
    print(f"wrote {path}")
    return 0
