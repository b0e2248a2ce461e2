"""Benchmark runner for the cranregions CLI.

    python3 perfbench/run.py --workload corners-k5 --seed 0 --seconds 20 --trace 0

One process, one client, one op at a time (closed loop), BLAS threads
pinned to 1.  An op is one in-process `cranregions.cli.main(argv)` call
with stdout captured, so it covers spec parsing, joint build, compute and
the report; interpreter start and imports go into `setup_s`.  The run
repeats the workload's op list in whole passes until `--seconds` have
elapsed.  The reference kernel (`refkernel.py`) is timed before every
op, and each op's wall time is divided by the mean kernel time of the
run (`op_ratios`); those `*_ref` ratios are the end-to-end timing metrics.

`--trace 1` runs the ops with per-function wrappers (`tracer.py`) for
half the time, then the same ops again untraced, and reports per-layer
metrics plus the wrappers' overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The lines before it are for people.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def import_program():
    """Put the checkout's own `src` first on the path and import the CLI.

    Exits with a non-zero code if the source tree is missing, so that a
    copy of the benchmark alone never measures some other installed
    version.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    try:
        import cranregions.cli as cli
    except ImportError as e:
        sys.exit(f"error: cannot import cranregions from {src}: {e}")
    if pathlib.Path(cli.__file__).resolve().parent.parent != src:
        sys.exit(f"error: cranregions was imported from {cli.__file__}, not from {src}")
    return cli


def setup(workload: str, seed: int, workdir: pathlib.Path):
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workloads.WORKLOADS[workload](seed, workdir, ROOT)


def probe_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import and set up."""
    times = []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-only", str(WORK / f"{workload}-s{seed}-probe{i}")],
            check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Runs ops, checks their outputs, and keeps per-op timings."""

    def __init__(self, cli):
        self.cli = cli
        self.records = []  # (op key, start, end) per op, perf_counter seconds
        self.kernels = []  # (time read, kernel seconds), in time order
        self.attempted = 0
        self.status = {"ok": 0, "unsolved": 0, "wrong": 0}
        self.messages = []
        self._first_output = {}

    def _kernel(self):
        from refkernel import time_kernel

        k = time_kernel()
        self.kernels.append((time.perf_counter(), k))

    def run_op(self, op, tracer=None):
        self._kernel()
        if tracer is not None:
            tracer.install()
            tracer.begin_op(self.attempted, op.key)
        t0 = time.perf_counter()
        try:
            code, out, err = call_cli(self.cli, op.argv)
        except Exception:  # a traceback is a wrong answer; keep measuring
            code, out, err = None, "", traceback.format_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
            tracer.uninstall()
        self.records.append((op.key, t0, t1))
        self.attempted += 1
        self._check(op, code, out, err)

    def _check(self, op, code, out, err):
        import workloads

        if code is None:
            status, msg = workloads.WRONG, err.strip().splitlines()[-1]
        else:
            try:
                status, msg = op.check(code, out)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                status, msg = workloads.WRONG, f"unreadable output: {e!r}"
            if status != workloads.WRONG and not self._repeats_first(op.key, out):
                status, msg = workloads.WRONG, "output differs from an earlier op on the same input"
            if code not in (0, 3) and err:
                msg += f" ({err.strip().splitlines()[-1]})"
        self.status[status] += 1
        if msg and len(self.messages) < 20:
            self.messages.append(f"{status} {op.key}: {msg}")

    def _repeats_first(self, key, out):
        """Reports for one input must be identical apart from timing fields."""
        try:
            doc = json.loads(out)
            doc.pop("wall_time_s", None)
            canon = json.dumps(doc, sort_keys=True)
        except json.JSONDecodeError:
            canon = out
        return self._first_output.setdefault(key, canon) == canon

    def run_passes(self, ops, seconds=0.0, tracer=None, passes=1):
        """At least `passes` whole passes over `ops`, and more until
        `seconds` have elapsed; returns the pass count."""
        deadline = time.perf_counter() + seconds
        done = 0
        while done < passes or time.perf_counter() < deadline:
            for op in ops:
                self.run_op(op, tracer)
            done += 1
        self._kernel()
        return done

    @property
    def failed(self):
        return self.status["unsolved"] + self.status["wrong"]


def op_ratios(records, kernels):
    """Each op's time in kernel units, as (op key, ratio).

    The divisor is the mean of every kernel reading of the run.  The
    readings are interleaved with the ops, so they see the same phases of
    the host's speed.  A reading is a 10 ms point sample and the host's
    speed swings within a second, so the two or three readings next to an
    op estimate the speed that op saw worse than the whole run does: on a
    shared 2-core x86 host, run-wide means gave run-to-run spreads as
    small or smaller than per-op windows on every workload, and 0.05
    instead of 0.08 for `op_p90_ref` and `op_mean_ref` on invert-up-k2l2.
    """
    unit = statistics.fmean(k for _, k in kernels)
    return [(key, (t1 - t0) / unit) for key, t0, t1 in records]


def timing_metrics(ratios):
    """p50, p90 and mean over the workload's inputs of each input's mean
    op time in kernel units; averaging each input over the passes first
    keeps one misread op out of the tail."""
    by_key = {}
    for key, ratio in ratios:
        by_key.setdefault(key, []).append(ratio)
    per_input = [statistics.fmean(v) for v in by_key.values()]
    return {
        "op_p50_ref": statistics.median(per_input),
        "op_p90_ref": statistics.quantiles(per_input, n=10, method="inclusive")[8],
        "op_mean_ref": statistics.fmean(per_input),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_program()
    import workloads
    from tracer import OVERHEAD_METRIC, Tracer, metric_units

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        setup(args.workload, args.seed, pathlib.Path(args.setup_only))
        return 0

    workdir = WORK / f"{args.workload}-s{args.seed}"
    ops = setup(args.workload, args.seed, workdir)
    runner = Runner(cli)

    if args.trace:
        tracer = Tracer()
        passes = runner.run_passes(ops, args.seconds / 2, tracer)
        n_traced, k_traced = len(runner.records), len(runner.kernels)
        runner.run_passes(ops, passes=passes)
        traced = sum(r for _, r in op_ratios(runner.records[:n_traced], runner.kernels[:k_traced]))
        plain = sum(r for _, r in op_ratios(runner.records[n_traced:], runner.kernels[k_traced:]))
        metrics = tracer.metrics()
        metrics[OVERHEAD_METRIC] = traced / plain - 1.0
        tracer.write(workdir / "trace.json")
        units = metric_units()
        untraced = runner.records[n_traced:]
    else:
        setup_s = probe_setup(args.workload, args.seed)
        passes = runner.run_passes(ops, args.seconds)
        metrics = timing_metrics(op_ratios(runner.records, runner.kernels))
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["solved_frac"] = runner.status["ok"] / runner.attempted
        units = {"op_p50_ref": "ref", "op_p90_ref": "ref", "op_mean_ref": "ref",
                 "setup_s": "s", "peak_rss_mb": "MB", "solved_frac": "ratio"}
        untraced = runner.records

    raw = [t1 - t0 for _, t0, t1 in untraced]
    kernel = [k for _, k in runner.kernels]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{passes} passes of {len(ops)} ops, {runner.attempted} ops attempted")
    print(f"op_p50_s {statistics.median(raw):.4f}  ref_kernel_s {statistics.median(kernel):.6f}  "
          f"fail_frac {runner.failed / runner.attempted:.4f}  "
          f"unsolved {runner.status['unsolved']}  wrong {runner.status['wrong']}")
    for msg in runner.messages:
        print(f"  {msg}")
    if args.trace:
        print(f"trace written to {workdir / 'trace.json'}")
    print(json.dumps({
        "correct": runner.status["wrong"] == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
