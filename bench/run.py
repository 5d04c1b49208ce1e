"""chan-atlas benchmark: seeded workloads through the program's command line.

Run from the root of a checkout of the repository::

    python3 bench/run.py --workload round --seed 1 --seconds 15 --trace 0

The workload's specs are generated from ``--seed`` (``specs.py``) into
``.bench_work/``; the program sees only those files.  One process and one
caller run a closed loop: each operation is one in-process call of
``chan_atlas.cli.main`` and starts when the previous one returns.  BLAS is
pinned to one thread.

With ``--trace 0`` the run measures the set-up time (median of several fresh
interpreter starts), makes one untimed warm-up operation, then times whole
passes over the workload's operations until ``--seconds`` have been spent,
and reports the median pass, the set-up time and the peak resident memory.
With ``--trace 1`` it times untraced passes the same way, then makes one
traced pass (``calltrace.py``) and reports per-layer times and counts summed over
that pass; traced and untraced outputs must be byte-identical.

Every output is checked against ``oracles.py``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--results FILE`` also writes it, with the run's settings, to
``FILE``.  The exit code is 1 when an operation failed or a check did not
hold, and 2 when the checkout holds no program to run.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import specs  # noqa: E402
from calltrace import Tracer  # noqa: E402

PROGRAM_SEED = "0"
SETUP_STARTS = 7

# a fresh interpreter: import the command line and read every spec, then
# print the moment the first operation could begin
READY_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import chan_atlas.cli\n"
    "from chan_atlas.formats import load_channel\n"
    "for p in sys.argv[2:]:\n"
    "    load_channel(p)\n"
    "print(repr(time.monotonic()))\n"
)

STAGES = ("image", "classification", "entropy", "fixed_points",
          "image_additivity_vs_identity")

# per-layer metrics of the traced run: (name, calls | s | self_s)
TRACED_FUNCTIONS = (
    ("cli.main", ("s", "calls")),
    ("formats.load_channel", ("s",)),
    ("pipeline.validate_report", ("s",)),
    ("pipeline.report_json", ("s",)),
    ("geometry.find_vertices", ("s", "self_s", "calls")),
    ("geometry.polytopic_decompose", ("s", "self_s", "calls")),
    ("geometry.support_function", ("calls",)),
    ("classify.is_cq", ("s", "self_s")),
    ("classify.is_entanglement_breaking", ("s", "self_s")),
    ("classify.is_universally_image_additive", ("s", "self_s")),
    ("classify.reconstruct_ecq", ("s", "self_s")),
    ("entropy.min_output_entropy", ("s", "self_s", "calls")),
    ("entropy.image_additivity_gap", ("s", "self_s")),
    ("entropy.entropy_additivity_gap", ("s", "self_s")),
    ("fixed_points.fixed_point_structure", ("s",)),
    ("fixed_points.cesaro_projection", ("s",)),
    ("channels.apply", ("calls",)),
    ("channels.dual_apply", ("calls",)),
    ("channels.tensor", ("calls",)),
    ("linalg.trace_norm", ("calls",)),
    ("linalg.svd", ("calls",)),
    ("linalg.eigh", ("calls",)),
    ("linalg.eigvalsh", ("calls",)),
)


class NoProgram(Exception):
    pass


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Bench:
    def __init__(self, root, workload, seed):
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "chan_atlas", "cli.py")):
            raise NoProgram(f"no chan_atlas sources under {self.src}")
        self.ops = specs.build(workload, seed)
        self.spec_dir = os.path.join(root, ".bench_work", f"{workload}-{seed}")
        shutil.rmtree(self.spec_dir, ignore_errors=True)
        os.makedirs(self.spec_dir)
        for op in self.ops:
            op.write(self.spec_dir)
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.op_times = {}  # finish time of each operation within its pass
        self.cli = None

    # -- set-up -------------------------------------------------------

    def spec_paths(self):
        return sorted(os.path.join(self.spec_dir, f) for f in os.listdir(self.spec_dir))

    def setup_once(self):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", READY_PROBE, self.src, *self.spec_paths()],
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise NoProgram(f"fresh start failed: {out.stderr.strip()}")
        return float(out.stdout) - start

    def setup_s(self):
        self.setup_once()  # compiles the sources' byte code on a fresh checkout
        return statistics.median(self.setup_once() for _ in range(SETUP_STARTS))

    def load(self):
        sys.path.insert(0, self.src)
        import chan_atlas.cli

        self.cli = chan_atlas.cli

    # -- operations ---------------------------------------------------

    def call(self, op, extra=()):
        argv = ["--seed", PROGRAM_SEED, "--format", "json", *op.argv(self.spec_dir), *extra]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as e:  # noqa: BLE001 - a crash is one failed operation
            code, err = 1, io.StringIO(f"{type(e).__name__}: {e}")
        return code, out.getvalue(), err.getvalue()

    def judge(self, op, result, errs=()):
        """Count one operation and check its output."""
        code, text, err = result
        self.attempted += 1
        if code:
            errs = [f"{op.name}: exit code {code}: {err.strip()}", *errs]
        else:
            errs = [*oracles.check(op, text), *errs]
        if errs:
            self.failed += 1
            self.wrong.extend(errs)

    def one_pass(self, traced=None):
        results = []
        t0 = time.perf_counter()
        for op in self.ops:
            if traced:
                traced.new_operation()
                # the stage times come from the report's own timings
                results.append(self.call(op, ("--timings",) if op.args[0] == "report" else ()))
            else:
                results.append(self.call(op))
            self.op_times.setdefault(op.name, []).append(time.perf_counter() - t0)
        return time.perf_counter() - t0, results

    def timed_passes(self, seconds):
        """Whole passes until ``seconds`` are spent; returns the pass times
        and the outputs of the last pass."""
        self.judge(self.ops[0], self.call(self.ops[0]))  # warm-up
        times, spent = [], 0.0
        while not times or spent < seconds:
            t, results = self.one_pass()
            times.append(t)
            spent += t
            for op, res in zip(self.ops, results):
                self.judge(op, res)
        return times, results

    # -- runs ---------------------------------------------------------

    def run(self, seconds):
        setup = self.setup_s()
        self.load()
        times, _ = self.timed_passes(seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "pass_s": _metric(statistics.median(times), "s"),
            "setup_s": _metric(setup, "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }, {"pass_times_s": times, "op_finish_s": self.op_times}

    def run_traced(self, seconds):
        self.load()
        times, plain = self.timed_passes(seconds)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, traced = self.one_pass(traced=tracer)
        finally:
            tracer.uninstall()
        return self._layers(tracer, traced_s, statistics.median(times), plain, traced)

    def _layers(self, tracer, traced_s, plain_s, plain, traced):
        metrics = {}
        for name, kinds in TRACED_FUNCTIONS:
            st = tracer.stat(name)
            for kind in kinds:
                if kind == "calls":
                    metrics[f"{name}.calls"] = _metric(st.calls, "count")
                else:
                    metrics[f"{name}.{kind}"] = _metric(getattr(st, kind), "s")
        metrics["geometry.polytopic_decompose.repeat_calls"] = _metric(tracer.repeat_calls,
                                                                       "count")
        metrics["channels.natural_matrix.builds"] = _metric(tracer.natural_builds, "count")
        stages = dict.fromkeys(STAGES, 0.0)
        for op, (code, text, err), (pcode, ptext, _) in zip(self.ops, traced, plain):
            if op.args[0] == "report" and not code:
                report = json.loads(text)
                for k, v in report.pop("timings", {}).items():
                    stages[k] += v
                text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            same = text == ptext and code == pcode
            self.judge(op, (code, text, err),
                       () if same else [f"{op.name}: traced output differs from the untraced one"])
        metrics.update({f"pipeline.stage.{k}.s": _metric(v, "s") for k, v in stages.items()})
        metrics["trace.pass_s"] = _metric(traced_s, "s")
        metrics["trace.overhead_s"] = _metric(traced_s - plain_s, "s")
        trace_file = os.path.join(self.spec_dir, "trace.json")
        with open(trace_file, "w", encoding="utf-8") as f:
            json.dump({"spans": tracer.spans,
                       "stats": {k: [s.calls, s.s, s.self_s] for k, s in tracer.stats.items()}},
                      f)
        return metrics, {"untraced_pass_s": plain_s, "trace_file": trace_file}


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="chan-atlas benchmark")
    ap.add_argument("--workload", choices=specs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="also write the result, with settings, to this JSON file")
    args = ap.parse_args(argv)
    try:
        bench = Bench(os.getcwd(), args.workload, args.seed)
        if args.trace:
            metrics, extra = bench.run_traced(args.seconds)
        else:
            metrics, extra = bench.run(args.seconds)
    except NoProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for msg in bench.wrong:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {"correct": not bench.wrong, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    if args.results:
        with open(args.results, "w", encoding="utf-8") as f:
            json.dump({**result, "workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "environment": environment(), **extra}, f, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 1 if bench.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
