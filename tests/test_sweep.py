"""Every subcommand over every spec file under tests/data, byte for byte.

`tests/data/sweep.sha256` holds, for each call, the sha256 of its exit code,
stdout and stderr.  A change that must keep every output byte recomputes the
sweep here; a change that means to alter an output regenerates the manifest
with

    PYTHONPATH=src python tests/test_sweep.py

which prints the argv of every call whose line changed; the diff shows the
same lines.
"""

import collections
import contextlib
import glob
import hashlib
import io
import os

from algebroids.cli import SUBCOMMANDS, main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "data", "sweep.sha256")

# `--trunc 2` is the ignored flag as the benchmark passes it
FLAG_SETS = ([], ["--json"], ["--json", "--residuals"], ["--trunc", "2"])


def spec_files():
    paths = glob.glob(os.path.join(ROOT, "tests", "data", "**", "*.alg"),
                      recursive=True)
    return sorted(os.path.relpath(p, ROOT).replace(os.sep, "/")
                  for p in paths)


def call_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()


def sweep_lines():
    lines = []
    for sub in SUBCOMMANDS:
        for path in spec_files():
            for flags in FLAG_SETS:
                argv = [sub, path] + flags
                lines.append(f"{call_digest(argv)}  {' '.join(argv)}")
    return lines


def changed_calls(got, expected):
    """The argv of every call whose line is not in the manifest."""
    old = set(expected)
    return [g.split("  ", 1)[1] for g in got if g not in old]


def read_manifest():
    with open(MANIFEST) as fh:
        return fh.read().splitlines()


def test_sweep_matches_manifest():
    expected = read_manifest()
    got = sweep_lines()
    assert len(got) == len(expected)
    changed = changed_calls(got, expected)
    per_sub = collections.Counter(argv.split(" ", 1)[0] for argv in changed)
    assert not changed, (f"{len(changed)} calls changed: "
                         + ", ".join(f"{n} {sub}"
                                     for sub, n in sorted(per_sub.items())))


if __name__ == "__main__":
    expected = read_manifest()
    got = sweep_lines()
    for argv in changed_calls(got, expected):
        print(argv)
    with open(MANIFEST, "w") as fh:
        fh.write("\n".join(got) + "\n")
