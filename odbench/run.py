"""odchain benchmark: accuracy and time per workload, end to end and per layer.

Run from the repository root:

    python3 odbench/run.py --workload toy-15 --seed 0 --seconds 12 --trace 0
    python3 odbench/run.py                      # every workload, both passes

Each experiment is what ``odchain run`` does: build the scenario, then
``run_experiment`` with the models seed,kf,pkf,spkf and ``emit_report`` into a
scratch directory.  A run of one workload:

1. builds and validates the scenario;
2. runs one round, every experiment seed of the workload once, untimed, and
   checks its outputs apart from the program (``checks.py``).  The accuracy
   metrics are means over this round.  With ``--trace 0`` a helper process
   (``run.py --peak-heap``) meanwhile measures the peak Python heap of one
   experiment under ``tracemalloc`` (``peak_mem_mb``); it is reaped before
   the timed loop starts, and killed if the run fails or is terminated;
3. with ``--trace 0``, runs experiments for ``--seconds``, cycling through
   the seeds with tracing off, and times three set-ups after each, all on one
   CPU.  Each experiment and each group of set-ups sits between two gauges
   of the machine's speed (``_gauge``), and its time is divided by their
   mean.  ``experiment_s`` is the median of these ratios and ``setup_s`` the
   median set-up ratio, both times ``REFERENCE_S``: seconds at the speed at
   which the gauge reads ``REFERENCE_S``;
   with ``--trace 1``, runs each seed in turn once untraced and once traced
   until ``--seconds`` have passed, and derives the per-layer metrics from
   the traced spans, which it writes to ``.bench_out/``.

Every scored model row counts as one operation; ``checks.row_outcomes`` says
which fail.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names
and units come from ``BENCHMARK.json``; the run fails if it does not produce
exactly the metrics listed there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 15  # for the traced set-up; end to end, 3 after each timed experiment
MODELS = ("seed", "kf", "pkf", "spkf")
HEAP_TIMEOUT_S = 150  # the helper process measuring peak_mem_mb is killed after this

#: Typical reading of ``_gauge()`` on the machine of the README's reference
#: figures; end-to-end timings are quoted at the speed at which it reads this.
REFERENCE_S = 0.0125
_GAUGE_ARRAYS = None

# Per-layer metrics summed over the spans of one traced experiment; each is
# reported as the median over the traced experiments.
SPAN_METRICS = (
    "departure.probabilities.calls", "departure.probabilities.busy_s",
    "assignment.load_network.calls", "assignment.load_network.busy_s",
    "assignment.assignment_matrix.calls", "assignment.assignment_matrix.busy_s",
    "assignment.cumulative_mapping.busy_s",
    "kalman.run_kf_sequence.self_s", "kalman.run_kf_sequence.step_ms",
    "legs.build_leg_operator.busy_s",
    "legfilter.attribute_interval_deviations.busy_s", "legfilter.run_leg_chain.busy_s",
    "legfilter.predict_horizon.busy_s", "legfilter.predict_horizon.load_calls",
    "experiment.generate_truth_and_history.self_s", "experiment.estimate.busy_s",
    "experiment.score.busy_s", "experiment.emit_report.busy_s",
    "experiment.run_experiment.self_s",
)


def _bootstrap() -> None:
    """Pin BLAS to one thread and import the package from this checkout's src/."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "odchain", "__init__.py")):
        sys.exit(f"odbench: no odchain sources under {src}; run from a full checkout")
    sys.path.insert(0, src)


@contextlib.contextmanager
def _one_cpu():
    """Keep this process on one CPU while it times.

    The CPUs of a shared virtual machine change speed independently, so the
    gauge has to run on the CPU the experiment ran on.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _metric_specs() -> tuple[dict[str, str], dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _experiment(cfg, seed: int, out_dir: str):
    import odchain

    report = odchain.run_experiment(cfg, models=MODELS, seed=seed)
    odchain.emit_report(report, out_dir, include_profiles=False)
    return report


def _reference() -> float:
    """Wall time of a fixed piece of work that does not touch odchain.

    Elementwise arithmetic, a sort and a sum over 8 MB arrays.  The machine's
    slow phases come from contention for caches and memory, and this work
    slows with them about as much as an experiment does; a pure-Python loop
    slows about twice as much.
    """
    import numpy as np

    global _GAUGE_ARRAYS
    if _GAUGE_ARRAYS is None:
        a = np.linspace(0.0, 1.0, 1_000_000)
        _GAUGE_ARRAYS = (a, a[::-1].copy())
    a, b = _GAUGE_ARRAYS
    t0 = time.perf_counter()
    z = a * b + a
    z.sort()
    float(z.sum())
    return time.perf_counter() - t0


def _gauge() -> float:
    """The machine's speed now: the faster of two reference runs, so that a
    stray interrupt in one of them does not count."""
    return min(_reference(), _reference())


def _peak_heap(workload_name: str, seed: int, out_dir: str) -> None:
    """Print the peak traced heap of one experiment in bytes, its rows and failures.

    Runs in a process of its own (``run.py --peak-heap``): tracemalloc slows a
    run about tenfold, so it runs beside the check round.
    """
    import checks
    from workloads import WORKLOADS

    cfg = WORKLOADS[workload_name].setup()
    tracemalloc.start()
    try:
        report = _experiment(cfg, seed, out_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(json.dumps([peak, checks.row_key(report), len(checks.row_outcomes(report))]))


def _heap_helper(workload_name: str, seed: int, out_dir: str) -> subprocess.Popen:
    """Start ``_peak_heap`` in a process of its own; its result is on its stdout."""
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--peak-heap", "--workload", workload_name,
         "--seed", str(seed), "--out", out_dir],
        stdout=subprocess.PIPE, text=True,
    )


class WorkloadRun:
    """One run of one workload: operations, checks and metrics."""

    def __init__(self, workload, bench_seed: int, seconds: float, scratch: str) -> None:
        self.workload = workload
        self.seeds = workload.seeds(bench_seed)
        self.seconds = seconds
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, str] = {}
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.reference: dict[int, tuple] = {}
        self.reports = []
        self.cfg = workload.setup()
        self.cut = self.cfg.cutoff_index

    def count(self, report) -> None:
        """Tally the report's rows and check them against the first run of the seed."""
        import checks

        outcomes = checks.row_outcomes(report)
        self.attempted += len(report.rows)
        self.failed += len(outcomes)
        for model, reason in outcomes.items():
            self.reasons.setdefault(model, reason)
        key = checks.row_key(report)
        if self.reference.setdefault(report.seed, key) != key:
            self.problems.append(f"seed {report.seed}: a repeat gave different rows")

    def check_round(self) -> None:
        """Run every seed once, untimed, and check the outputs apart from the program."""
        import checks
        from odchain import assignment
        from tracing import Tracer

        recorder = Tracer({
            "experiment.generate_truth_and_history": lambda artifacts, args, kwargs: artifacts,
            "legfilter.run_leg_chain": lambda states, args, kwargs: (args, kwargs, states),
        })
        for seed in self.seeds:
            with recorder, recorder.span("bench.experiment") as root:
                before = assignment.load_call_count()
                report = _experiment(self.cfg, seed, self.scratch)
                loads = assignment.load_call_count() - before
            spans = recorder.descendants(root, recorder.children())
            names = {i: recorder.spans[i][0] for i in spans}
            traced_loads = sum(1 for n in names.values() if n == "assignment.load_network")
            if traced_loads != loads:
                self.problems.append(f"seed {seed}: {traced_loads} traced loads, "
                                     f"the counter says {loads}")
            artifacts, = (recorder.notes.pop(i) for i, n in names.items()
                          if n == "experiment.generate_truth_and_history")
            chain_calls = [recorder.notes.pop(i) for i, n in names.items()
                           if n == "legfilter.run_leg_chain"]
            self.problems += checks.check_artifacts(artifacts)
            self.problems += checks.check_report(report, self.cut, self.scratch)
            self.problems += checks.check_chain(chain_calls)
            self.reports.append(report)
            self.count(report)
        blind = checks.blind_intervals(artifacts, self.cut)
        if blind:
            self.notes.append(
                f"fault: pieces[h, h] is zero on {blind} of {self.cut} measured intervals; "
                "run_kf_sequence uses only that same-interval piece as its measurement "
                "matrix, so the filters cannot see those intervals"
            )

    def timed(self, seed: int) -> float:
        """Wall time of one untraced experiment."""
        t0 = time.perf_counter()
        report = _experiment(self.cfg, seed, self.scratch)
        elapsed = time.perf_counter() - t0
        self.count(report)
        return elapsed

    def end_to_end(self) -> dict[str, float]:
        import numpy as np

        import checks

        helper = _heap_helper(self.workload.name, self.seeds[0], os.path.join(self.scratch, "heap"))
        try:
            self.check_round()
            out, _ = helper.communicate(timeout=HEAP_TIMEOUT_S)
        finally:
            if helper.poll() is None:
                helper.kill()
            helper.wait()
        if helper.returncode != 0:
            raise RuntimeError(f"the peak-heap helper exited with code {helper.returncode}")
        peak, key, failed = json.loads(out.splitlines()[-1])
        key = tuple(tuple(row) for row in key)
        self.attempted += len(key)
        self.failed += failed
        if key != self.reference[self.seeds[0]]:
            self.problems.append("the tracemalloc experiment gave different rows")

        # Each experiment and each group of set-ups is timed between two
        # gauges and divided by their mean, so the machine's speed at that
        # moment largely cancels; set-ups are timed between the experiments so
        # that both sample the same stretch of the run.
        times: list[float] = []
        relative: list[float] = []
        setup_relative: list[float] = []
        with _one_cpu():
            ref = _gauge()
            deadline = time.perf_counter() + self.seconds
            while not times or time.perf_counter() < deadline:
                times.append(self.timed(self.seeds[len(times) % len(self.seeds)]))
                ref_after = _gauge()
                relative.append(times[-1] / (0.5 * (ref + ref_after)))
                setups = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    self.workload.setup()
                    setups.append(time.perf_counter() - t0)
                ref = _gauge()
                setup_relative += [t / (0.5 * (ref_after + ref)) for t in setups]
        self.notes.append(
            f"{len(times)} timed experiments, {len(setup_relative)} timed set-ups; "
            f"wall time per experiment: median {statistics.median(times):.4g} s, "
            f"mean {statistics.fmean(times):.4g} s"
        )
        metrics = {
            "setup_s": REFERENCE_S * statistics.median(setup_relative),
            "experiment_s": REFERENCE_S * statistics.median(relative),
            "peak_mem_mb": peak / 1e6,
        }
        reports, cut = self.reports, self.cut
        for model in ("kf", "pkf", "spkf"):
            metrics[f"rmse_od.{model}"] = float(np.mean(
                [checks.rmse(r.estimates[model], r.truth) for r in reports]))
        for model in ("kf", "pkf"):
            metrics[f"rmse_od_pred.{model}"] = float(np.mean(
                [checks.rmse(r.estimates[model][:, cut:], r.truth[:, cut:]) for r in reports]))
            metrics[f"rmse_link.{model}"] = float(np.mean([r.row(model).rmse_link for r in reports]))
        return metrics

    def per_layer(self) -> dict[str, float]:
        """Alternate untraced and traced experiments; per-layer metrics from the spans."""
        import numpy as np

        from odchain import assignment
        from tracing import Tracer

        self.check_round()

        def matrix_note(result, args, kwargs):
            pieces = result.pieces
            return pieces.nbytes / 1e6, np.count_nonzero(pieces) / pieces.size

        tracer = Tracer({"assignment.assignment_matrix": matrix_note})
        setups = []
        untraced: list[float] = []
        loads: dict[int, int] = {}
        with _one_cpu():
            with tracer:
                for _ in range(SETUP_REPEATS):
                    with tracer.span("bench.setup") as root:
                        self.workload.setup()
                    setups.append(root)

            deadline = time.perf_counter() + self.seconds
            while not loads or time.perf_counter() < deadline:
                seed = self.seeds[len(loads) % len(self.seeds)]
                untraced.append(self.timed(seed))
                with tracer, tracer.span("bench.experiment") as root:
                    before = assignment.load_call_count()
                    report = _experiment(self.cfg, seed, self.scratch)
                    loads[root] = assignment.load_call_count() - before
                self.count(report)

        spans, kids = tracer.spans, tracer.children()
        per_exp = []
        for root, counted in loads.items():
            m = dict.fromkeys(SPAN_METRICS, 0.0)
            for i in tracer.descendants(root, kids):
                name = spans[i][0]
                for key, value in ((".calls", 1), (".busy_s", tracer.duration(i)),
                                   (".self_s", tracer.self_time(i, kids))):
                    if name + key in m:
                        m[name + key] += value
                if name == "kalman.run_kf_sequence":
                    m["kalman.run_kf_sequence.step_ms"] += 1000.0 * tracer.duration(i) / self.cut
                if name == "assignment.load_network":
                    if spans[spans[i][3]][0] == "experiment.run_experiment":
                        m["experiment.score.busy_s"] += tracer.duration(i)
                    if tracer.has_ancestor(i, "legfilter.predict_horizon"):
                        m["legfilter.predict_horizon.load_calls"] += 1
            if m["assignment.load_network.calls"] != counted:
                self.problems.append(f"{m['assignment.load_network.calls']:.0f} traced loads in "
                                     f"one experiment, the counter says {counted}")
            m["bench.experiment_s"] = tracer.duration(root)
            per_exp.append(m)

        metrics = {key: statistics.median(m[key] for m in per_exp) for key in SPAN_METRICS}
        matrices = list(tracer.notes.values())
        metrics["assignment.assignment_matrix.mb"] = statistics.median(mb for mb, _ in matrices)
        metrics["assignment.assignment_matrix.fill"] = statistics.median(f for _, f in matrices)
        metrics["scenario.load.busy_s"] = statistics.median(
            sum(tracer.duration(i) for i in kids.get(root, ()) if spans[i][0].startswith("scenario."))
            for root in setups
        )
        metrics["kalman.informed_share"] = float(np.mean([
            (np.abs(r.estimates["kf"][:, : self.cut] - r.historical[:, : self.cut]).max(axis=0) > 0).mean()
            for r in self.reports
        ]))
        metrics["trace.overhead_s"] = (
            statistics.fmean(m["bench.experiment_s"] for m in per_exp) - statistics.fmean(untraced))
        self.notes.append(f"{len(untraced)} untraced and {len(per_exp)} traced experiments, "
                          f"{len(spans)} spans")

        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{self.workload.name}.jsonl"), "w",
                  encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        return metrics


def main(argv=None) -> int:
    _bootstrap()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics "
                             "from the traced pass (default: both)")
    parser.add_argument("--peak-heap", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.peak_heap:  # the helper process: --seed is the experiment seed
        _peak_heap(args.workload, args.seed, args.out)
        return 0
    # A terminated run unwinds, so its helper process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    end_to_end, per_layer = _metric_specs()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = (0, 1) if args.trace is None else (args.trace,)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    for name in names:
        for trace in passes:
            scratch = tempfile.mkdtemp(dir=tmp_root)
            try:
                run = WorkloadRun(WORKLOADS[name], args.seed, args.seconds, scratch)
                metrics = run.per_layer() if trace else run.end_to_end()
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            units = per_layer if trace else end_to_end
            if set(metrics) != set(units):
                raise RuntimeError(
                    f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
            _print_result(name, trace, run, metrics, units)
    try:
        os.rmdir(tmp_root)
    except OSError:
        pass
    return 0


def _print_result(name: str, trace: int, run: WorkloadRun, metrics, units) -> None:
    print(f"workload {name}  trace {trace}  experiment seeds {run.seeds[0]}..{run.seeds[-1]}")
    for key, unit in units.items():
        print(f"  {key:<48} {metrics[key]:>14.6g} {unit}")
    print(f"  attempted {run.attempted}  failed {run.failed}")
    for model, reason in sorted(run.reasons.items()):
        print(f"    failed {model}: {reason}")
    for note in run.notes:
        print(f"  {note}")
    if run.problems:
        print(f"  checks: {len(run.problems)} problems")
        for problem in run.problems[:20]:
            print(f"    {problem}")
    else:
        print("  checks: all passed")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)


if __name__ == "__main__":
    sys.exit(main())
