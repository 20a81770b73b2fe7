"""In-process benchmark of b2weight.

Run from the root of a source checkout:

    python3 bench/run.py --workload quad-sweep --seed 1 --seconds 30 --trace 0

One task at a time (a closed loop with one client), numeric libraries
pinned to one thread.  The run repeats whole rounds of its workload
(see ``workloads``) until ``--seconds`` have passed, checks every output, and
prints the metrics, then one JSON object as the last line:

* ``--trace 0``: setup_s, tasks_per_s, task_p50_s and peak_rss_mb, with the
  task times scaled to a reference machine speed (see ``Run``);
* ``--trace 1``: the per-layer metrics that BENCHMARK.json declares, per
  round, from wrappers installed around each layer's public functions
  (``tracer``); the spans are written to ``bench/out/``.

Workloads in ``workloads.FRESH_ROUNDS`` run each round in a fresh interpreter,
so that nothing the program keeps in memory outlives a round.
``--workload all`` runs the three workloads in turn in this one process and
prints one JSON line after each; ``peak_rss_mb`` is then the peak so far.
The program is imported from ``src/`` next to this directory; without it the
run stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import os

# pinned before numpy or scipy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import itertools
import json
import math
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 11
# task times are reported at the speed at which speed_kernel takes this long
REFERENCE_KERNEL_S = 1e-3
SETUP_PROBE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import b2weight
with contextlib.redirect_stdout(io.StringIO()):
    {first_call}
print(time.monotonic())
"""

def speed_kernel() -> None:
    """Fixed work in the styles the program runs: rational sums, a float loop,
    dict updates and small numpy products.  About a millisecond here."""
    total = Fraction(0)
    for i in range(1, 90):
        total += Fraction(1, i)
    acc = 0.0
    for i in range(4000):
        acc += i * 0.5
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    vec = np.arange(8.0)
    for _ in range(60):
        vec = vec @ np.eye(8) * 0.5 + 1.0


def kernel_time() -> float:
    """Fastest of three timings of ``speed_kernel``."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        speed_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def time_setup(code: str) -> float:
    """Wall time from starting a fresh interpreter until ``code`` (the
    SETUP_PROBE for a workload) has imported b2weight and made its first
    call.  Not scaled: the kernel timed in this process follows a child's
    import time worse than no scaling at all."""
    start = time.monotonic()
    probe = subprocess.run(
        [sys.executable, "-c", code, str(SRC_DIR)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.split()[-1]) - start


class Run:
    """Counts and timings of one run of one workload.

    Task times are kept raw and scaled to the reference speed: the kernel is
    timed between every two tasks, and each task time is multiplied by
    REFERENCE_KERNEL_S over the mean of the kernel times taken just before
    and just after it.  The machine's speed changes within a tenth of a
    second, so a kernel timing shared by a batch of short tasks scales them
    about twice as unevenly.
    """

    def __init__(self):
        self.raw: list[float] = []  # tasks that completed
        self.scaled: list[float] = []
        self.raw_s = 0.0  # every attempted task, completed or not
        self.scaled_s = 0.0
        self.attempted = 0
        self.rounds = 0
        self.errors: list[str] = []  # tasks that raised
        self.wrong: list[str] = []  # tasks whose output failed its check
        self.notes: Counter = Counter()
        self.setup_s: list[float] = []
        self.child_peak_kb = 0  # largest ru_maxrss of a round child
        self.kernel_s: list[float] = []
        self.time_kernel()

    def time_kernel(self) -> None:
        """Time the kernel; the next task is scaled by this and the timing
        after it, so call it again after anything else that took time."""
        self.kernel_s.append(kernel_time())

    def execute(self, task, tracer=None) -> None:
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = task.call()
            else:
                with tracer.task(self.attempted):
                    result = task.call()
        except Exception as exc:  # a failing operation is counted, the run goes on
            error = exc
        elapsed = time.perf_counter() - start
        self.time_kernel()
        scaled = elapsed * REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s[-2:])
        self.raw_s += elapsed
        self.scaled_s += scaled
        if error is not None:
            self.errors.append(f"raised {type(error).__name__}: {error}")
        else:
            self.raw.append(elapsed)
            self.scaled.append(scaled)
            problem = task.check(result, self.notes)
            if problem:
                self.wrong.append(problem)

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.wrong)

    @property
    def tasks_per_s(self) -> float:
        return len(self.scaled) / self.scaled_s


ROUND_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import run
run.child_round()
"""


def run_in_child(run: Run, workload: tuple[str, int], index: int, tracer=None) -> None:
    """Run round ``index`` of ``workload`` (name, seed) in a fresh interpreter
    and take over the child's ``run`` and ``tracer`` state.  No memo the
    program fills in one round outlives it, and the child's peak memory
    counts in ``run.child_peak_kb``."""
    state = pickle.dumps((workload, index, vars(run), tracer and vars(tracer)))
    child = subprocess.run(
        [sys.executable, "-c", ROUND_CHILD, str(BENCH_DIR), str(SRC_DIR)],
        input=state, capture_output=True, timeout=170,
    )
    if child.returncode != 0:
        raise RuntimeError(f"round child exited with code {child.returncode}: {child.stderr.decode()[-2000:]}")
    run_state, tracer_state, peak_kb = pickle.loads(child.stdout)
    vars(run).update(run_state)
    if tracer is not None:
        vars(tracer).update(tracer_state)
    run.child_peak_kb = max(run.child_peak_kb, peak_kb)


def child_round() -> None:
    """The child side of ``run_in_child``: state in on stdin, state out on
    stdout."""
    import workloads

    (name, seed), index, run_state, tracer_state = pickle.load(sys.stdin.buffer)
    rounds = workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"))
    tasks = next(itertools.islice(rounds, index, None))
    run = Run()
    vars(run).update(run_state)
    tracer = None
    with contextlib.ExitStack() as stack:
        if tracer_state is not None:
            import tracer as tracing

            tracer = tracing.Tracer()
            vars(tracer).update(tracer_state)
            stack.enter_context(tracer.install())
        run.time_kernel()  # in this process, before its first task
        for task in tasks:
            run.execute(task, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.buffer.write(pickle.dumps((vars(run), tracer and vars(tracer), peak_kb)))


def run_rounds(rounds, seconds: float, tracer=None, fresh: tuple[str, int] | None = None, probe: str | None = None) -> Run:
    """Whole rounds until ``seconds`` of wall time have passed (at least one),
    each in a fresh interpreter when ``fresh`` names the workload and seed.

    With a ``probe``, set-up is timed SETUP_REPEATS times, spread evenly over
    the run between rounds: the machine's speed changes over seconds, and
    probes taken together at one moment would all see the same phase.  The
    probes' time is added to the run, so the tasks still get ``seconds``."""
    run = Run()
    deadline = time.perf_counter() + seconds

    def take_probes(due: int) -> None:
        nonlocal deadline
        while probe and len(run.setup_s) < due:
            probe_start = time.perf_counter()
            run.setup_s.append(time_setup(probe))
            deadline += time.perf_counter() - probe_start
            run.time_kernel()

    while True:
        task_share = 1 - (deadline - time.perf_counter()) / seconds  # of the run's task time so far
        take_probes(min(SETUP_REPEATS, int(task_share * SETUP_REPEATS) + 1))
        if fresh:
            run_in_child(run, fresh, run.rounds, tracer)
        else:
            for task in next(rounds):
                run.execute(task, tracer)
        run.rounds += 1
        if time.perf_counter() >= deadline:
            take_probes(SETUP_REPEATS)
            return run


def layer_metrics(tracer, run: Run) -> dict[str, dict]:
    totals = tracer.totals()

    def total(name: str, field: str) -> float:
        return totals[name][field]

    values = {
        "hyper.closed_forms.s": total("hyper.alpha_closed", "s") + total("hyper.beta_closed", "s"),
        "hyper.gauss_2f1.terms": total("hyper.gauss_2f1", "work"),
        "quad.nodes": total("quad.sector_inner_numeric", "work"),
        "quad.estimate_exceeded": run.notes["estimate_exceeded"],
    }
    for layer in ("cli", "hyper", "ring", "vpoly", "weight", "quad"):
        values[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    # the per-layer metrics BENCHMARK.json declares; values are per round
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name == "trace.tasks_per_s":
            value = run.tasks_per_s
        elif name in values:
            value = values[name] / run.rounds
        else:
            span, field = name.rsplit(".", 1)
            value = total(span, field) / run.rounds
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Run one workload, print its report lines and return the result object,
    or None when no task completed."""
    self_test = checks.self_test()
    rounds = workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"))
    fresh = (name, seed) if name in workloads.FRESH_ROUNDS else None

    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        with tracer.install():
            run = run_rounds(rounds, seconds, tracer, fresh)
    else:
        probe = SETUP_PROBE.format(first_call=workloads.FIRST_CALL[name])
        time_setup(probe)  # warm-up, not counted
        run = run_rounds(rounds, seconds, fresh=fresh, probe=probe)
    if not run.raw:
        print(f"error: no task of {name} completed; first error: {run.errors[0]}", file=sys.stderr)
        return None

    if trace:
        metrics = layer_metrics(tracer, run)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_path, {"workload": name, "seed": seed, "rounds": run.rounds})
        print(f"spans written to {trace_path.relative_to(BENCH_DIR.parent)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(run.setup_s), "unit": "s"},
            "tasks_per_s": {"value": run.tasks_per_s, "unit": "1/s"},
            "task_p50_s": {"value": statistics.median(run.scaled), "unit": "s"},
            "peak_rss_mb": {"value": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, run.child_peak_kb) / 1024, "unit": "MB"},
        }

    missed = [check for check, caught in self_test if not caught]
    # a task that raised is a failed operation; a wrong output makes the run incorrect
    correct = not run.wrong and not missed
    print(f"workload {name}  seed {seed}  rounds {run.rounds}  attempted {run.attempted}  failed {run.failed}")
    for problem in (run.errors + run.wrong)[:10]:
        print(f"  {problem}")
    print(f"self-test: {len(self_test) - len(missed)} of {len(self_test)} perturbed values refused")
    print(f"unscaled: {len(run.raw) / run.raw_s:.6g} tasks/s, task p50 {statistics.median(run.raw):.6g} s; "
          f"speed kernel median {statistics.median(run.kernel_s) * 1e3:.4g} ms over {len(run.kernel_s)} timings")
    for metric, entry in metrics.items():
        print(f"{metric:34s} {entry['value']:.6g} {entry['unit']}")
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all' for each in turn in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "b2weight" / "__init__.py").is_file():
        print(f"error: no b2weight sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if names[0] not in workloads.WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for name in names:
        result = run_workload(workloads, name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
