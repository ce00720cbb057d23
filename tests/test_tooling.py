"""The names the benchmark tracer patches must exist in the package.

`verdictbench/tracer.py` wraps package functions by name; a renamed
function would leave its coverage counter silently at zero.  The tracer
module is imported read-only from its file; only the coverage test
installs it, around one pass of each workload, and removes it again.
The section and construction kinds `cli` dispatches on must be the ones
`specfile` reads, the README's spec-file table must list the keys and row
shapes that `specfile` checks, and every committed `BENCH_*.json` must name the
workloads and end-to-end metrics of `BENCHMARK.json`.  Every function of the
package must have a caller that is not a test.
"""

import ast
import collections
import contextlib
import importlib
import importlib.util
import io
import json
import os
import sys

import pytest

import algebroids
from algebroids import algebroid, bialgebroid, cli, gpoly, specfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer():
    path = os.path.join(ROOT, "verdictbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("verdictbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, qualname):
    owner = importlib.import_module(f"algebroids.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module,qualname,metric", _tracer().LAYER_FUNCTIONS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_layer_function_resolves(module, qualname, metric):
    assert callable(_resolve(module, qualname)), metric


# the kernels `Tracer.install` wraps besides the layer functions
KERNELS = [
    ("gpoly", "GPoly.__mul__"), ("gpoly", "GPoly.__add__"),
    ("gpoly", "GPoly.__sub__"), ("gpoly", "partial_left"),
    ("gpoly", "GPoly.__init__"), ("gpoly", "Chart.__init__"),
    ("gpoly", "Chart.__eq__"), ("symplectic", "SymplecticChart.__init__"),
    ("report", "Report.add"),
]


@pytest.mark.parametrize("module,qualname", KERNELS,
                         ids=[q for _, q in KERNELS])
def test_patched_kernel_resolves(module, qualname):
    owner_path, _, attr = qualname.rpartition(".")
    owner = (_resolve(module, owner_path) if owner_path
             else importlib.import_module(f"algebroids.{module}"))
    # defined by the package itself, not inherited from object
    assert attr in vars(owner), qualname
    assert callable(getattr(owner, attr))


def test_section_tables_cover_the_commands():
    # a kind missing from either table would fail at run time with exit 3
    for kinds, _, _ in cli.COMMANDS.values():
        assert set(kinds) <= set(specfile._SECTIONS), kinds
    assert set(cli._CONSTRUCTS) == set(specfile._CONSTRUCTS)


def _readme_shapes():
    """Section label -> {key: (argument count, or None for one or more;
    whether the row ends in `= expr`)}, as the README's spec-file table
    shows them: `anchor <fiber> <var> = expr`, `word <fiber>... = expr`."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("\n## Spec files\n")[1].split("\n## ")[0]
    table = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        label, rows = (cell.strip(" `") for cell in line.split("|")[1:3])
        shapes = table[label] = {}
        for row in rows.split("`, `"):
            key, *args = row.split()
            takes_expr = args[-2:] == ["=", "expr"]
            if takes_expr:
                args = args[:-2]
            many = len(args) == 1 and args[0].endswith("...")
            shapes[key] = (None if many else len(args), takes_expr)
    return table


def test_readme_lists_each_key_with_its_row_shape():
    want = {kind: shapes for kind, (shapes, _) in specfile._SECTIONS.items()
            if shapes}
    want.update((f"construct {kind}", shapes)
                for kind, (shapes, _) in specfile._CONSTRUCTS.items())
    assert _readme_shapes() == want


def test_every_export_resolves():
    # a deleted name left in __all__ breaks only `from algebroids import *`
    missing = [n for n in algebroids.__all__ if not hasattr(algebroids, n)]
    assert not missing


def _used_names(node):
    """How often each identifier is read under `node`: a name, an attribute,
    or a dotted part of a string such as `"FullMorphism.pull_taylor"`."""
    used = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            used.update(n.value.split("."))
    return used


def test_every_function_has_a_caller():
    # a helper that only tests call belongs in tests/: each module-level
    # function and public method is read somewhere in src/ outside its own
    # body, is exported, or is a name the benchmark tracer wraps
    src = os.path.join(ROOT, "src", "algebroids")
    trees = {}
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname)) as fh:
                trees[fname] = ast.parse(fh.read())
    used = sum((_used_names(t) for t in trees.values()), collections.Counter())
    with open(os.path.join(ROOT, "verdictbench", "tracer.py")) as fh:
        traced = _used_names(ast.parse(fh.read()))
    defs = ast.FunctionDef, ast.AsyncFunctionDef
    uncalled = []
    for fname, tree in trees.items():
        for node in tree.body:
            found = [(node.name, node)] if isinstance(node, defs) else []
            if isinstance(node, ast.ClassDef):
                found = [(f"{node.name}.{d.name}", d) for d in node.body
                         if isinstance(d, defs) and not d.name.startswith("_")]
            for qualname, d in found:
                if (used[d.name] > _used_names(d)[d.name]
                        or d.name in algebroids.__all__ or traced[d.name]):
                    continue
                uncalled.append(f"{fname}:{qualname}")
    assert not uncalled, uncalled


def test_axiom_route_calls_section_bracket(monkeypatch):
    # the tracer counts [X, Y] at the module binding of section_bracket; a
    # Jacobi loop that stopped calling it there would read 0 on lie-ladder
    calls = []
    bracket = algebroid.section_bracket

    def counted(*args, **kwargs):
        calls.append(args)
        return bracket(*args, **kwargs)

    monkeypatch.setattr(algebroid, "section_bracket", counted)
    with open(os.path.join(ROOT, "tests", "data", "two_dim_algebra.alg")) as fh:
        spec = specfile.parse_spec(fh.read()).lookup("V").resolved
    assert algebroid.check_algebroid(spec).passed
    assert calls


def test_vector_field_calls_partial_left(monkeypatch):
    # the tracer counts derivatives at the module binding of partial_left; a
    # vector field that took them inline would read 0 on broken-ladder
    calls = []
    derivative = gpoly.partial_left

    def counted(*args, **kwargs):
        calls.append(args)
        return derivative(*args, **kwargs)

    monkeypatch.setattr(gpoly, "partial_left", counted)
    line = gpoly.Chart([("x", 0)])
    x = line.var_poly("x")
    assert gpoly.apply_vector_field({"x": x * x}, x * x) == x * x * x * 2
    assert calls


def test_morphism_check_calls_the_action(monkeypatch):
    # the tracer counts the operator action at the module binding of
    # hamiltonian_action; a morphism check that inlined the action would
    # read 0 on poisson-ladder and cli-cold
    calls = []
    action = bialgebroid.hamiltonian_action

    def counted(*args, **kwargs):
        calls.append(args)
        return action(*args, **kwargs)

    monkeypatch.setattr(bialgebroid, "hamiltonian_action", counted)
    path = os.path.join(ROOT, "tests", "data", "morphism.alg")
    assert cli.main(["check-morphism", path]) == 0
    assert calls


@pytest.fixture
def bench_runner(monkeypatch):
    """`verdictbench/run.py`, loaded read-only from its file; it imports
    its sibling modules `tracer` and `workloads` by those names."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "verdictbench"))
    path = os.path.join(ROOT, "verdictbench", "run.py")
    spec = importlib.util.spec_from_file_location("verdictbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in _BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in _BENCHMARK["end_to_end"]]
BENCH_FILES = sorted(f for f in os.listdir(ROOT)
                     if f.startswith("BENCH_") and f.endswith(".json"))


@pytest.mark.parametrize("fname", BENCH_FILES)
def test_bench_file_names_benchmark_workloads_and_metrics(fname):
    # a committed record of parent/change runs stays comparable only while
    # its workloads and compared metrics are the ones BENCHMARK.json names;
    # a summary metric compares the two sides by `ratio_of_medians`, the
    # other summary entries (failed shares, correctness) are run facts
    with open(os.path.join(ROOT, fname)) as fh:
        bench = json.load(fh)
    assert bench["workloads"]
    for key, entry in bench["workloads"].items():
        assert any(key.startswith(name) for name in WORKLOADS), key
        metrics = [name for name, value in entry["summary"].items()
                   if isinstance(value, dict) and "ratio_of_medians" in value]
        assert metrics, key
        assert set(metrics) <= set(END_TO_END), (key, metrics)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_coverage_counters(workload, bench_runner, monkeypatch,
                                    tmp_path):
    # a traced run reads correct: false when one of these counters is zero,
    # for instance when a call no longer goes through the module binding
    # the tracer wraps; pass 0 of seed 7 runs in-process, cli-cold included
    run = bench_runner
    monkeypatch.chdir(ROOT)
    items = run.write_inputs(run.W.make_pass(workload, 7, 0), str(tmp_path),
                             0)
    tracer = run.T.Tracer()
    tracer.install()
    try:
        for _, argv in items:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
    finally:
        tracer.uninstall()
    metrics = run.per_layer(run.T.merge([tracer.state()]), 1, 0.0, 0.0, 1.0)
    zero = [name for name in run.COMMON_COVERAGE + run.COVERAGE[workload]
            if not metrics[name][0]]
    assert not zero
