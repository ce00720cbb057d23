"""Time to verdict of the `algebroids` verifier on four seeded workloads.

Run from the root of a checkout (see README.md):

    python3 verdictbench/run.py --workload lie-ladder --seed 1 --seconds 20 --trace 0

With `--trace 0` the last line of stdout holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run.  The line
before it records the seed, a hash of the generated inputs, the sample
count and the wrong-verdict and error shares.  `--self-test` checks that
the inputs are reproducible and that the answers hold.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
VERDICT_LIMIT_S = 30.0     # a verdict slower than this counts as an error
RUN_BUDGET_S = 120.0       # no new pass starts after this much wall time
MIN_SAMPLES = 100          # so that ten samples lie beyond the 90th percentile
SETUP_REPEATS = 9
INTERPRETER_REPEATS = 5


class VerdictTimeout(BaseException):
    """Raised by the alarm; not an Exception, so the CLI cannot swallow it."""


def _alarm(signum, frame):
    raise VerdictTimeout()


# -- layout and environment ------------------------------------------------------


def check_layout(root, workload):
    need = [os.path.join(root, "src", "algebroids", "cli.py")]
    if workload == "cli-cold":
        need.append(os.path.join(root, "tests", "data", "golden"))
    missing = [p for p in need if not os.path.exists(p)]
    if missing:
        print("error: run from the root of an algebroids checkout; missing "
              + ", ".join(os.path.relpath(p, root) for p in missing),
              file=sys.stderr)
        sys.exit(2)


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def import_cli(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import algebroids.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: imported algebroids from {cli.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return cli


def write_inputs(cases, workdir, index):
    """Spec files of one pass; returns (case, argv) pairs for the CLI."""
    items = []
    for i, case in enumerate(cases):
        path = case.path
        if path is None:
            path = os.path.join(workdir, f"p{index}-{i}.alg")
            with open(path, "w") as fh:
                fh.write(case.text)
        items.append((case, [case.argv[0], path] + case.argv[1:]))
    return items


# -- one verdict --------------------------------------------------------------------


def judge_json(case, code, stdout):
    """'ok', 'wrong' or 'error' for an in-process --json verdict."""
    if code not in (0, 1):
        return "error"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "error"
    passed = code == 0
    if payload.get("passed") is not passed:
        return "wrong"
    for section in payload.get("sections", []):
        for check in section.get("checks", []):
            if check["name"] == "routes-agree" and not check["passed"]:
                return "wrong"
    return "ok" if passed == case.expect_pass else "wrong"


class InProcess:
    """Calls `algebroids.cli.main(argv)` and captures its stdout."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.traced = None
        signal.signal(signal.SIGALRM, _alarm)

    def start_tracing(self, tracer):
        tracer.install()
        self.tracer = self.traced = tracer

    def stop_tracing(self):
        self.tracer.uninstall()
        self.tracer = None

    def trace_states(self):
        return [self.traced.state()]

    def write_spans(self, path):
        self.traced.dump_spans(path)

    def verdict(self, case, argv, verdict_id):
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.begin_verdict(verdict_id)
        code = None
        signal.setitimer(signal.ITIMER_REAL, VERDICT_LIMIT_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = self.cli.main(argv)
                elapsed = time.perf_counter() - start
        except (Exception, SystemExit, VerdictTimeout) as exc:
            elapsed = time.perf_counter() - start
            print(f"{case.label}: {exc!r}", file=sys.stderr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if elapsed > VERDICT_LIMIT_S:
            return elapsed, "error"
        return elapsed, judge_json(case, code, out.getvalue())


class ColdProcess:
    """Runs each verdict in a fresh `python -m algebroids.cli` child, or in
    the tracing bootstrap; the output must equal the golden file."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.goldens = {}
        self.tracing = False
        self.states = []
        self.span_files = []

    def start_tracing(self, tracer):
        self.tracing = True

    def stop_tracing(self):
        self.tracing = False

    def trace_states(self):
        return self.states

    def write_spans(self, path):
        with open(path, "w") as out:
            for name in self.span_files:
                with open(name) as fh:
                    shutil.copyfileobj(fh, out)

    def verdict(self, case, argv, verdict_id):
        if self.tracing:
            cmd = [sys.executable, os.path.join(HERE, "boot.py")] + argv
            trace_out = os.path.join(self.workdir, f"trace-{verdict_id}")
            env = dict(self.env, VERDICTBENCH_TRACE_OUT=trace_out,
                       VERDICTBENCH_VERDICT=str(verdict_id))
        else:
            cmd = [sys.executable, "-m", "algebroids.cli"] + argv
            env = self.env
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE,
                                  timeout=VERDICT_LIMIT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, "error"
        elapsed = time.perf_counter() - start
        if self.tracing:
            try:
                with open(trace_out + ".json") as fh:
                    self.states.append(json.load(fh))
            except (OSError, ValueError):
                return elapsed, "error"
            self.span_files.append(trace_out + ".jsonl")
        if proc.returncode not in (0, 1):
            return elapsed, "error"
        tag = case.label
        if tag not in self.goldens:
            with open(os.path.join(self.root, "tests", "data", "golden",
                                   f"{tag}.txt")) as fh:
                self.goldens[tag] = fh.read()
        got = f"# exit={proc.returncode}\n" + proc.stdout.decode("utf-8", "replace")
        return elapsed, "ok" if got == self.goldens[tag] else "wrong"


# -- set-up ----------------------------------------------------------------------------


def probe_setup(root, workload, seed):
    """One set-up in a fresh interpreter: import the package and generate
    and write the first pass; prints its own timings."""
    started = time.perf_counter()
    import_cli(root)
    imported = time.perf_counter()
    workdir = os.path.join(HERE, ".work", f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        write_inputs(W.make_pass(workload, seed, 0), workdir, 0)
        done = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": done - START,
                      "import_s": imported - started}))


def measure_setup(root, workload, seed):
    """Medians of set-up time and package import time over fresh children."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    setups, imports = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                              stdout=subprocess.PIPE, check=True, timeout=120)
        if i == 0:
            continue       # the first child may compile bytecode
        probe = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


def measure_interpreter(root):
    times = []
    for _ in range(INTERPRETER_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, check=True,
                       timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- measurement ----------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.samples = []
        self.outcomes = Counter()
        self.wrong = []          # labels of wrong verdicts
        self.unexpected = []     # wrong verdicts that are not known defects
        self.hasher = None
        self.pass0 = None
        self.passes = 0

    def record(self, case, elapsed, outcome):
        self.samples.append(elapsed)
        self.outcomes[outcome] += 1
        if outcome == "wrong":
            self.wrong.append(case.label)
            if not case.known_wrong:
                self.unexpected.append(case.label)
        elif outcome == "error":
            self.unexpected.append(case.label + " (error)")


def run_pass(runner, workload, seed, workdir, tally):
    """Generate, write and time one pass; returns its wall time."""
    index = tally.passes
    cases = W.make_pass(workload, seed, index)
    tally.hasher = W.digest(cases, tally.hasher)
    if tally.pass0 is None:
        tally.pass0 = W.digest(cases).hexdigest()
    items = write_inputs(cases, workdir, index)
    start = time.perf_counter()
    for i, (case, argv) in enumerate(items):
        elapsed, outcome = runner.verdict(case, argv, index * 1000 + i)
        tally.record(case, elapsed, outcome)
    tally.passes += 1
    return time.perf_counter() - start


def out_of_budget():
    return time.perf_counter() - START > RUN_BUDGET_S


def quantile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(tally, measured, setup_s, workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    return {
        "verdict_s.p50": (statistics.median(tally.samples), "s"),
        "verdict_s.p90": (quantile(tally.samples, 90), "s"),
        "verdicts_per_s": (len(tally.samples) / measured, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


# per-layer counters that must be nonzero on each workload; a zero means a
# wrapper missed its target
COVERAGE = {
    "lie-ladder": ("algebroid.section_bracket_calls", "gpoly.substitute_calls"),
    "poisson-ladder": ("algebroid.section_bracket_calls",
                       "algebroid.ce_differential_calls",
                       "algebroid.schouten_calls", "bialgebroid.action_calls",
                       "bialgebroid.pull_taylor_calls",
                       "constructions.build_calls", "symplectic.pullback_calls",
                       "gpoly.partial_left_calls", "gpoly.substitute_calls"),
    "broken-ladder": ("algebroid.section_bracket_calls",
                      "algebroid.ce_differential_calls",
                      "algebroid.schouten_calls", "report.residuals_rendered",
                      "gpoly.partial_left_calls"),
    "cli-cold": ("algebroid.section_bracket_calls",
                 "algebroid.ce_differential_calls", "algebroid.schouten_calls",
                 "bialgebroid.action_calls", "bialgebroid.pull_taylor_calls",
                 "constructions.build_calls", "symplectic.pullback_calls",
                 "gpoly.partial_left_calls", "gpoly.substitute_calls"),
}
COMMON_COVERAGE = ("specfile.parse_calls", "gpoly.new_calls", "gpoly.mul_calls",
                   "gpoly.add_calls", "gpoly.chart_eq_calls",
                   "gpoly.chart_builds", "symplectic.bracket_calls",
                   "symplectic.chart_builds", "algebroid.mu_builds",
                   "report.records")


def per_layer(state, passes, interpreter_s, import_s, overhead):
    calls, total, own, count = (state["calls"], state["total"], state["self"],
                                state["count"])

    def per(v):
        return v / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.interpreter_s": (interpreter_s, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.main_self_s": (per(own["cli.main"]), "s"),
        "specfile.parse_calls": (per(calls["specfile.parse"]), "count"),
        "specfile.parse_s": (per(total["specfile.parse"]), "s"),
        "specfile.lines": (per(count["specfile.lines"]), "count"),
        "gpoly.new_calls": (per(calls["gpoly.new"]), "count"),
        "gpoly.mul_calls": (per(calls["gpoly.mul"]), "count"),
        "gpoly.mul_s": (per(total["gpoly.mul"]), "s"),
        "gpoly.mul_monomial_ratio": (ratio(count["gpoly.mul_monomial"],
                                           count["gpoly.mul_poly"]), "ratio"),
        "gpoly.add_calls": (per(calls["gpoly.add"]), "count"),
        "gpoly.add_s": (per(total["gpoly.add"]), "s"),
        "gpoly.terms_out": (per(count["gpoly.terms_out"]), "count"),
        "gpoly.peak_terms": (count["gpoly.peak_terms"], "count"),
        "gpoly.partial_left_calls": (per(calls["gpoly.partial_left"]), "count"),
        "gpoly.substitute_calls": (per(calls["gpoly.substitute"]), "count"),
        "gpoly.substitute_s": (per(total["gpoly.substitute"]), "s"),
        "gpoly.chart_builds": (per(calls["gpoly.chart_build"]), "count"),
        "gpoly.chart_eq_calls": (per(count["gpoly.chart_eq_calls"]), "count"),
        "gpoly.chart_eq_distinct_ratio": (
            ratio(count["gpoly.chart_eq_distinct"],
                  count["gpoly.chart_eq_calls"]), "ratio"),
        "symplectic.bracket_calls": (per(calls["symplectic.bracket"]), "count"),
        "symplectic.bracket_self_s": (per(own["symplectic.bracket"]), "s"),
        "symplectic.bracket_pairs": (per(count["symplectic.bracket_pairs"]),
                                     "count"),
        "symplectic.bracket_out_terms": (
            per(count["symplectic.bracket_out_terms"]), "count"),
        "symplectic.pullback_calls": (per(calls["symplectic.pullback"]),
                                      "count"),
        "symplectic.pullback_s": (per(total["symplectic.pullback"]), "s"),
        "symplectic.chart_builds": (per(calls["symplectic.chart_build"]),
                                    "count"),
        "algebroid.section_bracket_calls": (
            per(calls["algebroid.section_bracket"]), "count"),
        "algebroid.section_bracket_self_s": (
            per(own["algebroid.section_bracket"]), "s"),
        "algebroid.axiom_route_s": (per(count["algebroid.axiom_route_s"]), "s"),
        "algebroid.mu_builds": (per(calls["algebroid.mu_build"]), "count"),
        "algebroid.mu_build_s": (per(total["algebroid.mu_build"]), "s"),
        "algebroid.mu_useful_ratio": (ratio(count["algebroid.mu_distinct"],
                                            calls["algebroid.mu_build"]),
                                      "ratio"),
        "algebroid.ce_differential_calls": (
            per(calls["algebroid.ce_differential"]), "count"),
        "algebroid.ce_differential_s": (
            per(total["algebroid.ce_differential"]), "s"),
        "algebroid.schouten_calls": (per(calls["algebroid.schouten"]), "count"),
        "algebroid.schouten_s": (per(total["algebroid.schouten"]), "s"),
        "bialgebroid.assemble_s": (per(total["bialgebroid.assemble"]), "s"),
        "bialgebroid.action_calls": (per(calls["bialgebroid.action"]), "count"),
        "bialgebroid.action_s": (per(total["bialgebroid.action"]), "s"),
        "bialgebroid.pull_taylor_calls": (
            per(calls["bialgebroid.pull_taylor"]), "count"),
        "bialgebroid.pull_taylor_s": (per(total["bialgebroid.pull_taylor"]),
                                      "s"),
        "bialgebroid.morphism_check_s": (
            per(total["bialgebroid.morphism_check"]), "s"),
        "constructions.build_calls": (per(calls["constructions.build"]),
                                      "count"),
        "constructions.build_s": (per(total["constructions.build"]), "s"),
        "report.records": (per(count["report.records"]), "count"),
        "report.residuals_rendered": (per(count["report.residuals_rendered"]),
                                      "count"),
        "report.residual_terms": (per(count["report.residual_terms"]), "count"),
        "report.residual_render_s": (per(count["report.residual_render_s"]),
                                     "s"),
        "report.output_s": (per(total["report.output"]), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return m


# -- self-test ------------------------------------------------------------------------------


def self_test():
    """Inputs are a function of the seed; the answers hold by construction."""
    def require(ok, message):
        if not ok:
            raise SystemExit(f"self-test failed: {message}")

    for workload in W.WORKLOADS:
        a = [W.digest(W.make_pass(workload, 7, k)).hexdigest() for k in (0, 1)]
        b = [W.digest(W.make_pass(workload, 7, k)).hexdigest() for k in (0, 1)]
        c = W.digest(W.make_pass(workload, 8, 0)).hexdigest()
        require(a == b, f"{workload}: the same seed gave different inputs")
        require(a[0] != a[1], f"{workload}: two passes drew the same inputs")
        require(c != a[0], f"{workload}: two seeds gave the same inputs")
    for kind, n, _ in W.LIE_RUNGS:
        require(W.jacobi_holds(W.lie_structure(kind, n), W.lie_rank(kind, n)),
                f"{kind}({n}) is not a Lie algebra")
    broken = W.make_pass("broken-ladder", 7, 0)
    require(not any(c.expect_pass for c in broken),
            "a mutation left a structure intact")
    require(sum(bool(c.known_wrong) for c in broken) == W.TRUNCATION_COPIES,
            "the truncation cases are not all marked")
    print("self-test ok")


# -- main ------------------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.self_test:
        self_test()
        return 0
    root = os.getcwd()
    check_layout(root, args.workload)
    if args.probe_setup:
        probe_setup(root, args.workload, args.seed)
        return 0

    workload, seed = args.workload, args.seed
    setup_s, import_s = measure_setup(root, workload, seed)
    workdir = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        if workload == "cli-cold":
            runner = ColdProcess(root, workdir)
        else:
            runner = InProcess(import_cli(root))
        if args.trace:
            covered, metrics = traced_run(args, root, runner, workdir, tally,
                                          import_s)
        else:
            covered, metrics = True, timed_run(args, runner, workdir, tally,
                                               setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(tally.samples)
    print(json.dumps({
        "workload": workload, "seed": seed, "trace": args.trace,
        "inputs_sha256": tally.hasher.hexdigest(), "pass0_sha256": tally.pass0,
        "passes": tally.passes, "samples": attempted,
        "wrong_verdict_share": tally.outcomes["wrong"] / attempted,
        "error_share": tally.outcomes["error"] / attempted,
        "wrong_verdicts": dict(Counter(tally.wrong)),
        "unexpected": tally.unexpected,
    }))
    print(json.dumps({
        "correct": covered and not tally.unexpected,
        "attempted": attempted,
        "failed": tally.outcomes["wrong"] + tally.outcomes["error"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def timed_run(args, runner, workdir, tally, setup_s):
    """Whole passes until the time is up and the 90th percentile has ten
    samples beyond it."""
    measured = 0.0
    while not ((measured >= args.seconds and len(tally.samples) >= MIN_SAMPLES)
               or out_of_budget()):
        measured += run_pass(runner, args.workload, args.seed, workdir, tally)
    return end_to_end(tally, measured, setup_s, args.workload)


def traced_run(args, root, runner, workdir, tally, import_s):
    """Alternate untraced and traced passes of the same shape; the layer
    numbers are per traced pass.  Returns (coverage holds, metrics)."""
    interpreter_s = measure_interpreter(root)
    tracer = T.Tracer()
    untraced = traced = 0.0
    traced_passes = 0
    started = time.perf_counter()
    while not traced_passes or not (
            time.perf_counter() - started >= args.seconds or out_of_budget()):
        untraced += run_pass(runner, args.workload, args.seed, workdir, tally)
        runner.start_tracing(tracer)
        try:
            traced += run_pass(runner, args.workload, args.seed, workdir,
                               tally)
        finally:
            runner.stop_tracing()
        traced_passes += 1
    runner.write_spans(os.path.join(
        HERE, ".work", f"spans-{args.workload}-seed{args.seed}.jsonl"))
    metrics = per_layer(T.merge(runner.trace_states()), traced_passes,
                        interpreter_s, import_s, traced / untraced)
    missing = [name for name in COMMON_COVERAGE + COVERAGE[args.workload]
               if not metrics[name][0]]
    if missing:
        print("error: per-layer counters are zero (a wrapper missed its "
              "target): " + ", ".join(missing), file=sys.stderr)
    return not missing, metrics


if __name__ == "__main__":
    sys.exit(main())
