#!/usr/bin/env python3
"""bindery benchmark: end-to-end CLI runs and a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload novel --seed 1 --seconds 50 --trace 0

Each iteration generates the workload's inputs from ``--seed``, then runs
the workload's command three times against one store: ``cold`` into an
empty store, ``noop`` unchanged, and ``force`` with ``--force``. Every
run is checked against the generator's ground truth. Iterations repeat
while another fits in ``--seconds``, and each timing is the median over
iterations.

With ``--trace 0`` the runs go through the real CLI in subprocesses and
the end-to-end metrics are printed. With ``--trace 1`` the same runs call
``bindery.cli.main`` in this process, first untraced and then traced, and
the per-layer metrics are printed. The last line of standard output is one
JSON object; the metric names and units are those listed in
``BENCHMARK.json``. The exit status is 0 only when every check passed.
"""

import argparse
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
RUNS = ("cold", "noop", "force")
RUN_LIMIT_S = 170  # every run of the benchmark must end within 180 s


@dataclass(frozen=True)
class Workload:
    corpus: dict  # keyword arguments of corpus.generate
    commands: tuple  # bindery argv of each step; IN and OUT are placeholders
    annotated: bool  # runs every phase, so book.json and reports exist


IN, OUT = "{in}", "{out}"
# Sizes keep one cold/noop/force iteration near 5 s on 2 CPUs, so that a
# run collects several samples; the reasons for each workload are in
# BENCHMARK.json. ``catalog`` is not listed there: its runs are two short
# processes each, and on a shared 2-CPU machine their medians spread by
# up to a quarter from one run to the next. It stays runnable by hand for
# work on fingerprints and all-pairs dedup.
WORKLOADS = {
    "novel": Workload(
        dict(books=1, words_per_book=10500, dup_share=1.0, with_fixtures=True),
        (("--jobs", "1", "all", "--in", IN, "--out", OUT),), True),
    "shelf": Workload(
        dict(books=22, words_per_book=700, dup_share=0.05, pagewise_share=0.1),
        (("--jobs", "2", "all", "--in", IN, "--out", OUT),), True),
    "catalog": Workload(
        dict(books=300, words_per_book=300, dup_share=0.05),
        (("ingest", "--in", IN, "--out", OUT), ("dedup", "--out", OUT)), False),
}


@dataclass
class Timing:
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    status: int = 0


def command_lines(workload, run, in_dir, store, jobs=None):
    """The bindery argv of each step of one run."""
    lines = []
    for argv in workload.commands:
        argv = [str(in_dir) if a == IN else str(store) if a == OUT else a
                for a in argv]
        if jobs is not None and "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = str(jobs)
        lines.append((["--force"] if run == "force" else []) + argv)
    return lines


def cli_env():
    """Default configuration: no BINDERY_* overrides, the checkout's sources."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BINDERY_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Subprocesses:
    """Runs the real CLI; CPU and peak RSS come from ``os.wait4``."""

    def __init__(self, log_path, deadline):
        self.log_path = log_path
        self.deadline = deadline
        self.env = cli_env()

    def __call__(self, run, lines):
        timing = Timing(wall=0.0)
        start = time.perf_counter()
        with open(self.log_path, "ab") as log:
            for argv in lines:
                status, usage = self._wait(argv, log)
                timing.cpu += usage.ru_utime + usage.ru_stime
                timing.rss_mb = max(timing.rss_mb, usage.ru_maxrss / 1024)
                timing.status = status
                if status != 0:
                    break
        timing.wall = time.perf_counter() - start
        return timing

    def _wait(self, argv, log):
        pid = os.posix_spawn(
            sys.executable, [sys.executable, "-m", "bindery", *argv], self.env,
            file_actions=[(os.POSIX_SPAWN_DUP2, log.fileno(), 1),
                          (os.POSIX_SPAWN_DUP2, log.fileno(), 2)],
            setsid=True)
        # A hung run is killed with its pool workers at the deadline.
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                os.killpg, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        return os.waitstatus_to_exitcode(status), usage


class InProcess:
    """Calls ``bindery.cli.main`` here, through whatever wraps it now.

    With a tracer, spans are tagged with the run they belong to.
    """

    def __init__(self, bindery, tracer=None):
        self.bindery = bindery
        self.tracer = tracer

    def __call__(self, run, lines):
        if self.tracer is not None:
            self.tracer.run = run
        timing = Timing(wall=0.0)
        start = time.perf_counter()
        for argv in lines:
            timing.status = self.bindery.cli.main(argv)
            if timing.status != 0:
                break
        timing.wall = time.perf_counter() - start
        return timing


class Tally:
    """Check outcomes over all runs of a benchmark invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.planted = 0
        self.recalled = 0
        self.problems = []

    def add(self, run, truth, timing, outcome):
        books = len(truth.sections)
        if timing.status != 0:
            outcome.fail(None, f"exit status {timing.status}")
            outcome.failed = set(truth.sections)
        self.attempted += books
        self.failed += len(outcome.failed & set(truth.sections))
        self.planted += len(truth.duplicates)
        self.recalled += outcome.recalled
        self.problems.extend(f"{run}: {p}" for p in outcome.problems)


def iteration(workload, seed, work, runner, bindery, tally, jobs=None):
    """Generate the inputs and make the cold, noop and force runs.

    Returns (setup seconds, run -> Timing, cold store digest, Truth).
    """
    in_dir, store = work / "in", work / "store"
    start = time.perf_counter()
    truth = corpus.generate(in_dir, seed, root=ROOT, **workload.corpus)
    setup = time.perf_counter() - start

    timings = {}
    snaps = {}
    for run in RUNS:
        timings[run] = runner(run, command_lines(workload, run, in_dir, store,
                                                 jobs))
        snaps[run] = checks.snapshot(store)
        outcome = checks.outputs(store, truth, workload.annotated, bindery)
        if run == "noop":
            outcome.merge(checks.unchanged(snaps["cold"], snaps["noop"]))
        elif run == "force":
            outcome.merge(checks.identical(snaps["cold"], snaps["force"]))
        tally.add(run, truth, timings[run], outcome)
    truth.save(work / "truth.json")
    shutil.rmtree(store, ignore_errors=True)
    shutil.rmtree(in_dir)
    return setup, timings, checks.digest(snaps["cold"]), truth


def another_fits(began, started, seconds):
    """Whether one more iteration as long as the last one ends in time."""
    now = time.perf_counter()
    last = now - started
    return (now - began + last <= seconds
            and now - began + 2 * last <= RUN_LIMIT_S)


def load_bindery():
    """Import the checkout's bindery package, or exit without a result."""
    if not (ROOT / "src" / "bindery" / "cli.py").is_file():
        sys.exit(f"bench: no bindery sources under {ROOT / 'src'}; "
                 "run from the root of a checkout")
    if not list((ROOT / corpus.FIXTURE_DIR).glob("*.txt")):
        sys.exit(f"bench: no fixture books under {ROOT / corpus.FIXTURE_DIR}")
    sys.path.insert(0, str(ROOT / "src"))
    import bindery.cli  # noqa: F401  (loads every module the tracer wraps)
    import bindery.report  # noqa: F401
    return sys.modules["bindery"]


def quiet_logging(work):
    """Send in-process CLI log lines to a file, as the subprocess runs do."""
    logging.basicConfig(filename=work / "cli.log", level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


def machine():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def end_to_end(workload, seed, seconds, work, bindery, tally, record):
    runner = Subprocesses(work / "cli.log", time.monotonic() + RUN_LIMIT_S)
    # Compile the package once so no timed run pays for bytecode.
    runner("warm", [["--help"]])
    samples = defaultdict(list)
    began = time.perf_counter()
    while True:
        started = time.perf_counter()
        setup, timings, digest, truth = iteration(
            workload, seed, work, runner, bindery, tally)
        samples["setup_s"].append(setup)
        for run in RUNS:
            samples[f"{run}_s"].append(timings[run].wall)
        samples["cold_cpu_s"].append(timings["cold"].cpu)
        samples["peak_rss_mb"].append(max(t.rss_mb for t in timings.values()))
        record["iterations"].append({
            "digest": digest, **{k: v[-1] for k, v in samples.items()},
            **{f"{run}_cpu": timings[run].cpu for run in RUNS}})
        print(f"bench: iteration {len(record['iterations'])}: "
              f"cold {timings['cold'].wall:.2f} s, noop "
              f"{timings['noop'].wall:.2f} s, force {timings['force'].wall:.2f} s, "
              f"store {digest[:16]}", file=sys.stderr)
        if tally.problems or not another_fits(began, started, seconds):
            break
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["ok_share"] = 1 - tally.failed / tally.attempted
    metrics["dup_recall"] = tally.recalled / tally.planted
    return metrics, truth


def traced(workload, seed, seconds, work, bindery, tally, record):
    runner = InProcess(bindery)
    quiet_logging(work)
    # Warm the lexicon caches so neither measured pass pays for them.
    warm = work / "warm"
    runner("warm", [["--jobs", "1", "all", "--in",
                     str(ROOT / corpus.FIXTURE_DIR), "--out", str(warm)]])
    shutil.rmtree(warm)
    samples = defaultdict(list)
    began = time.perf_counter()
    while True:
        started = time.perf_counter()
        _, plain, _, truth = iteration(workload, seed, work, runner, bindery,
                                       tally, jobs=1)
        tracer = spans.Tracer()
        with tracer:
            iteration(workload, seed, work, InProcess(bindery, tracer),
                      bindery, tally, jobs=1)
        tracer.write(work / f"spans-{len(record['iterations'])}.jsonl")
        metrics = tracer.metrics()
        for run in RUNS:
            metrics[f"{run}.trace_overhead"] = (
                metrics[f"{run}.cli.main.s"] / plain[run].wall)
            gap = tracer.unaccounted(run)
            if abs(gap) > 1e-6 * max(1.0, metrics[f"{run}.cli.main.s"]):
                tally.problems.append(f"{run}: self times miss {gap:.6f} s "
                                      "of cli.main")
        for key, value in metrics.items():
            samples[key].append(value)
        record["iterations"].append({k: metrics[k] for k in sorted(metrics)
                                     if k.endswith("cli.main.s")
                                     or k.endswith("trace_overhead")})
        if tally.problems or not another_fits(began, started, seconds):
            break
    return {k: statistics.median(v) for k, v in samples.items()}, truth


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    bindery = load_bindery()
    work = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workload = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine(),
              "corpus": workload.corpus, "commands": workload.commands,
              "traced_jobs": 1 if args.trace else None, "iterations": []}
    tally = Tally()
    measure = traced if args.trace else end_to_end
    values, truth = measure(workload, args.seed, args.seconds, work, bindery,
                            tally, record)
    record.update(books=len(truth.sections), words=truth.words,
                  planted_duplicates=len(truth.duplicates),
                  problems=tally.problems[:50])
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    for problem in tally.problems[:50]:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"bench: metrics not measured: {missing}")
    correct = not tally.problems and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
