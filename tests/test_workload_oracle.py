"""Verdicts against answers computed without `algebroids`.

`verdictbench/workloads.py` builds matrix Lie algebras from commutators and
judges a mutated one by an exact Jacobi check of its own; an identity table
on a log-canonical chi passes at every cap.  The module is imported
read-only from its file; nothing of the benchmark runs here.
"""

import contextlib
import importlib.util
import io
import json
import os
import random
import sys

import pytest

from algebroids.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads():
    path = os.path.join(ROOT, "verdictbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("verdictbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


W = _workloads()

# matrix Lie algebras of rank at most 9, from the workload families
ALGEBRAS = [("sl", 2), ("so", 3), ("gl", 2), ("b", 2), ("b", 3), ("so", 4),
            ("sl", 3), ("gl", 3)]


def _verdict(text, tmp_path):
    path = tmp_path / "lie.alg"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check-algebroid", str(path), "--json"])
    payload = json.loads(out.getvalue())
    assert code == (0 if payload["passed"] else 1)
    routes = [c for s in payload["sections"] for c in s["checks"]
              if c["name"] == "routes-agree"]
    assert routes and all(c["passed"] for c in routes)
    return payload["passed"]


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_verdicts_match_independent_jacobi(seed, tmp_path):
    rng = random.Random(seed)
    for kind, n in ALGEBRAS:
        rank = W.lie_rank(kind, n)
        intact = W.rescale(W.lie_structure(kind, n), rng, rank)
        broken = W._mutate_lie(intact, rank, rng)
        for struct in (intact, broken):
            answer = W.jacobi_holds(struct, rank)
            assert _verdict(W.lie_spec(struct, rank), tmp_path) is answer, \
                (kind, n, answer)


# (d, cap) -> the arguments of the identity table on a log-canonical chi:
# each of the sum_{k <= cap} C(d, k) words of its odd fibers times the
# d + 1 base parts of total order at most r = 1, less the constant
IDENTITY_ARGUMENTS = {(3, 1): 15, (3, 2): 27, (4, 3): 74, (5, 5): 191,
                      (6, 6): 447}


@pytest.mark.parametrize("d,cap", sorted(IDENTITY_ARGUMENTS))
def test_identity_tables_pass_on_total_order_arguments(d, cap, tmp_path):
    path = tmp_path / "identity.alg"
    upper = W.log_canonical(d, random.Random(d * 10 + cap))
    path.write_text(W.identity_morphism_spec(d, upper, cap))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check-morphism", str(path), "--json"])
    (section,) = json.loads(out.getvalue())["sections"]
    assert code == 0 and section["passed"]
    assert len(section["checks"]) == IDENTITY_ARGUMENTS[(d, cap)]
