"""Benchmark of `ldtruth resolve`, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scale_c8 --seed 7 --seconds 36 --trace 0

One run generates the workload's corpora from ``--seed`` (the timed
set-up, one per corpus, reported as a median), then resolves them one at
a time, each as a fresh ``python3 -m ldtruth.cli resolve`` child process:
a closed loop with a single client.  Rounds over the corpora repeat until
the next child would end past ``--seconds``.  Every child's outputs are
checked against the generator's answer key and against the first run of
the same corpus (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
The gated times, ``resolve_rel`` and ``resolve_cpu_rel``, are a child's
wall and CPU time divided by the time of a fixed calibration task run
just before and after it (see ``calibrate``); the raw seconds are
printed beside them.

``--trace 1`` resolves the first corpus a few times untraced, then once
in a child that calls ``cli.main`` under the outside-in tracer of
``tracer.py``, and reports the per-layer metrics, the tracing overhead
and ROADMAP's stage table.  ``--scale`` overrides the workload's share
of its full shape; ``--scale 1`` on ``scale_c8`` is the criterion-8
corpus behind ROADMAP's measured baseline.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print every metric by name and unit, including the ones that cannot
be gated (``failed_share``, ``accuracy``), and a provenance record; the
full result, with the trace spans, is written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

# workloads imports ldtruth, so it is imported where needed, after main()
# has put the checkout's src/ first on sys.path; tracer only in traced runs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

TRACE_BASELINE_RUNS = 3  # untraced runs before the traced one
CHILD_TIMEOUT_S = 150

# (name, unit): the gated metrics of BENCHMARK.json, in print order
END_TO_END = (("setup_s", "s"), ("resolve_rel", "x"), ("resolve_cpu_rel", "x"),
              ("peak_rss_mb", "MB"))
# (name, unit): printed beside them but not gated; see _report_end_to_end
REPORTED = (("resolve_s", "s"), ("resolve_cpu_s", "s"), ("calibration_s", "s"),
            ("accuracy", "ratio"), ("failed_share", "ratio"))


@dataclass
class Sample:
    """One child process: wall time from spawn to exit, its own rusage, and
    the calibration time measured around it."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    calib_s: float = 0.0


def calibrate() -> float:
    """Seconds this process takes for a fixed interpreter-bound task:
    string formatting, dict updates, float arithmetic and a sort.

    On a shared 2-vCPU virtual machine the CPU speed drifted by up to a
    third from one minute to the next, which no median over one run
    removes; a child's time divided by the calibration time measured
    around it spread half as much over ten seeds (0.04-0.06 against
    0.09-0.28 of the median).
    """
    start = time.perf_counter()
    table = {}
    for i in range(80_000):
        key = f"k{i % 4099}"
        table[key] = table.get(key, 0.0) + i * 0.5
    sorted(table.items(), key=lambda item: (-item[1], item[0]))
    return time.perf_counter() - start


def run_child(cmd: list, log_path: Path) -> Sample:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        # the child is waited for without reaping it first, so the timer
        # can never signal a pid that was already reused
        lock = threading.Lock()
        state = {"exited": False}

        def expire():
            with lock:
                if not state["exited"]:
                    proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, expire)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["exited"] = True
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode)


def _child_counts(log_path: Path) -> dict:
    """statements/claims/conflict_sets/iterations from the child's summary
    line on stderr; informational, absent keys are simply not reported."""
    counts = {}
    for token in log_path.read_text(errors="replace").split():
        key, _, value = token.partition("=")
        if key in ("statements", "claims", "conflict_sets", "iterations") \
                and value.isdigit():
            counts[key] = int(value)
    return counts


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ldtruth").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed: int, scale: float, seconds: int) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {"git_revision": revision, "src_sha256": _src_digest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "workload": workload.name,
            "why": workload.why, "seed": seed, "scale": scale,
            "seconds": seconds, "client": "closed loop, 1 client, "
            "one resolve child at a time", "flags": list(workload.flags)}


def _set_up(workload, seed, scale, directory, j) -> tuple:
    """One timed set-up of corpus ``j``: (seconds, corpus)."""
    import workloads
    start = time.perf_counter()
    corpus = workloads.prepare(workload, seed, scale, directory, j)
    return time.perf_counter() - start, corpus


class Runner:
    """Runs and checks resolve children for one benchmark run."""

    def __init__(self, workload, directory: Path):
        self.workload = workload
        self.directory = directory
        self.samples = {}     # corpus index -> [Sample]
        self.outcomes = {}    # corpus index -> [checks.Outcome]
        self.counts = {}      # corpus index -> child summary counts
        self.runs = 0

    def resolve(self, j: int, corpus, launcher=("-m", "ldtruth.cli")):
        """Resolve corpus ``j`` in a child started as ``python3 LAUNCHER
        resolve ...``, check its outputs, then delete them."""
        out_dir = self.directory / f"out{j}-{self.runs}"
        log = self.directory / f"log{j}-{self.runs}.txt"
        self.runs += 1
        cmd = [sys.executable, *launcher, "resolve", "--input",
               *corpus.inputs, "--out", str(out_dir), *self.workload.flags]
        before = calibrate()
        sample = run_child(cmd, log)
        sample.calib_s = (before + calibrate()) / 2
        previous = self.outcomes.get(j, [])
        reference = previous[0].digest if previous else None
        outcome = checks.check_outputs(sample.exit_code, out_dir, corpus.gold,
                                       reference)
        self.counts.setdefault(j, _child_counts(log))
        self.samples.setdefault(j, []).append(sample)
        self.outcomes.setdefault(j, []).append(outcome)
        shutil.rmtree(out_dir, ignore_errors=True)
        return sample, outcome

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.outcomes.values())

    @property
    def failures(self) -> list:
        return [f"corpus {j}: {failure}" for j, outcomes in
                sorted(self.outcomes.items()) for o in outcomes
                for failure in o.failures]

    @property
    def failed(self) -> int:
        return sum(1 for outcomes in self.outcomes.values()
                   for o in outcomes if not o.ok)

    def median(self, field: str, per_calibration: bool = False) -> float:
        return statistics.median(
            getattr(s, field) / (s.calib_s if per_calibration else 1.0)
            for samples in self.samples.values() for s in samples)

    def accuracy(self, j: int) -> float | None:
        scored = [o.accuracy for o in self.outcomes.get(j, ())
                  if o.accuracy is not None]
        return scored[0] if scored else None


def _corpus_rows(corpora, runner) -> list:
    rows = []
    for j, corpus in enumerate(corpora):
        samples = runner.samples.get(j, [])
        rows.append({
            "corpus": j, "seed": corpus.seed,
            "statements": corpus.statements, "input_bytes": corpus.input_bytes,
            "answer_key_slots": len(corpus.gold), **runner.counts.get(j, {}),
            "accuracy": runner.accuracy(j),
            "exit_codes": [s.exit_code for s in samples],
            "wall_s": [s.wall_s for s in samples],
            "cpu_s": [s.cpu_s for s in samples],
            "rss_mb": [s.rss_mb for s in samples],
            "calib_s": [s.calib_s for s in samples]})
    return rows


def bench_end_to_end(workload, seed, seconds, scale, directory) -> dict:
    import workloads
    timed = [_set_up(workload, seed, scale, directory, j)
             for j in range(workloads.CORPORA_PER_RUN)]
    setups = [elapsed for elapsed, _ in timed]
    corpora = [corpus for _, corpus in timed]
    regenerated = []

    runner = Runner(workload, directory)
    start = time.perf_counter()
    while True:
        j = runner.runs % len(corpora)
        if runner.runs and not j:
            # one more set-up per round spreads the set-up samples over the
            # run, and the generator must reproduce the same inputs
            k = (runner.runs // len(corpora) - 1) % len(corpora)
            took, again = _set_up(workload, seed, scale, directory, k)
            setups.append(took)
            regenerated.append(again.digest == corpora[k].digest)
        sample, _ = runner.resolve(j, corpora[j])
        elapsed = time.perf_counter() - start
        # stop before a child that would end past --seconds, once some
        # corpus has run twice so its outputs could be compared
        if runner.runs > len(corpora) and elapsed + sample.wall_s > seconds:
            break

    failures = runner.failures
    if not all(regenerated):
        failures.append("set-up gave different inputs for the same seed")
    accuracies = [runner.accuracy(j) for j in range(len(corpora))]
    values = {
        "setup_s": statistics.median(setups),
        "resolve_s": runner.median("wall_s"),
        "resolve_cpu_s": runner.median("cpu_s"),
        "resolve_rel": runner.median("wall_s", per_calibration=True),
        "resolve_cpu_rel": runner.median("cpu_s", per_calibration=True),
        "peak_rss_mb": runner.median("rss_mb"),
        "calibration_s": runner.median("calib_s"),
        "accuracy": (statistics.fmean(accuracies)
                     if None not in accuracies else None),
        "failed_share": runner.failed / runner.attempted,
    }
    info = {
        "sweep_cap_runs": sum(1 for samples in runner.samples.values()
                              for s in samples if s.exit_code == 2),
        "setup_samples_s": setups,
    }
    return {"values": values, "info": info, "attempted": runner.attempted,
            "failed": runner.failed, "failures": failures,
            "corpora": _corpus_rows(corpora, runner)}


def bench_traced(workload, seed, seconds, scale, directory) -> dict:
    import tracer  # only here: the untraced runs must not depend on it
    with tracer.Tracer(tracer.SETUP_TARGETS) as setup_tracer:
        setup_s, corpus = _set_up(workload, seed, scale, directory, 0)

    runner = Runner(workload, directory)
    start = time.perf_counter()
    while runner.runs < TRACE_BASELINE_RUNS \
            or time.perf_counter() - start < seconds / 2:
        runner.resolve(0, corpus)
    untraced = runner.samples[0][:]
    untraced_s = statistics.median(s.wall_s for s in untraced)

    report_path = directory / "trace-report.json"
    sample, outcome = runner.resolve(
        0, corpus, launcher=(str(HERE / "traced.py"), str(report_path)))
    report = {"stats": {}, "gone": [], "spans": []}
    if report_path.is_file():
        report = json.loads(report_path.read_text())
    setup_report = setup_tracer.report()
    report["stats"].update(setup_report["stats"])
    report["gone"] += setup_report["gone"]
    report["setup_spans"] = setup_report["spans"]
    extra = {"overhead_s": sample.wall_s - untraced_s,
             "accuracy": outcome.accuracy,
             "output_bytes": outcome.output_bytes}
    if "vote" in report:
        vote = {(e, p): (k, v) for e, p, k, v in report["vote"]}
        extra["vote_accuracy"] = checks.score(vote, corpus.gold)[0]
    report["extra"] = {k: v for k, v in extra.items() if v is not None}
    peak_rss = statistics.median(s.rss_mb for s in untraced)
    return {"report": report, "layers": tracer.layer_metrics(report),
            "stage_table": tracer.stage_table(report, peak_rss),
            "attempted": runner.attempted, "failed": runner.failed,
            "failures": runner.failures, "setup_s": setup_s,
            "traced_wall_s": sample.wall_s, "untraced_wall_s": untraced_s,
            "corpora": _corpus_rows([corpus], runner)}


def _fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _report_traced(measured, workload, seed) -> dict:
    import tracer
    metrics = {}
    print("# per-layer metric | value | unit | should move | on")
    for name, unit, _better, moves, on, _ in tracer.LAYER_METRICS:
        value = measured["layers"][name]
        print(f"{name} {_fmt(value)} {unit} | {moves} | {', '.join(on)}")
        if name not in tracer.PLD_ONLY and value is not None:
            metrics[name] = {"value": value, "unit": unit}
    if measured["report"]["gone"]:
        print(f"# gone: {', '.join(measured['report']['gone'])}")
    print(f"# stage table ({workload.name}, traced run, seed {seed}):")
    for line in measured["stage_table"]:
        print(line)
    measured["layer_targets"] = [
        {"name": n, "unit": u, "better": b, "should_move": m, "on": list(on)}
        for n, u, b, m, on, _ in tracer.LAYER_METRICS]
    return metrics


def _report_end_to_end(measured) -> dict:
    values, info = measured["values"], measured["info"]
    metrics = {}
    for name, unit in END_TO_END:
        print(f"{name} {_fmt(values[name])} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    # Not gated: raw seconds drift with the machine (see calibrate), accuracy
    # on the 300-source shapes moves with the seed (0.2 to 0.8 per corpus)
    # far more than any bound allows, and failed_share is 0 when the program
    # is right and already reaches the result line as failed / attempted.
    for name, unit in REPORTED:
        print(f"{name} {_fmt(values[name])} {unit} (reported, not gated)")
    print(f"# {measured['failed']} of {measured['attempted']} runs failed")
    samples = sum(len(row["wall_s"]) for row in measured["corpora"])
    print(f"# medians over {len(info['setup_samples_s'])} set-ups and "
          f"{samples} resolve runs of {len(measured['corpora'])} corpora; "
          f"{info['sweep_cap_runs']} runs hit the sweep cap (exit 2)")
    return metrics


def run_benchmark(workload_name: str, seed: int, seconds: int, trace: bool,
                  scale: float | None = None) -> dict:
    """One benchmark run; prints its report and returns the result line."""
    import workloads
    workload = workloads.WORKLOADS[workload_name]
    scale = workload.scale if scale is None else scale
    directory = WORK / workload.name
    meta = provenance(workload, seed, scale, seconds)
    print(f"# ldtruth resolve benchmark: workload={workload.name} seed={seed} "
          f"scale={scale:g} seconds={seconds} trace={int(trace)}")
    print(f"# provenance {json.dumps(meta, sort_keys=True)}")
    bench = bench_traced if trace else bench_end_to_end
    shutil.rmtree(directory, ignore_errors=True)
    try:
        measured = bench(workload, seed, seconds, scale, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    for row in measured["corpora"]:
        sizes = {k: row[k] for k in ("seed", "statements", "claims",
                                     "conflict_sets", "input_bytes",
                                     "iterations") if k in row}
        print(f"# corpus {row['corpus']} {json.dumps(sizes)} "
              f"exit_codes={row['exit_codes']}")
    for failure in measured["failures"]:
        print(f"# FAILED {failure}")
    if trace:
        metrics = _report_traced(measured, workload, seed)
    else:
        metrics = _report_end_to_end(measured)

    result = {"correct": not measured["failures"],
              "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"provenance": meta, "result": result,
                                **measured}, indent=1, sort_keys=True))
    print(f"# full result: {path.relative_to(ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="share of the workload's full shape "
                             "(default: the benchmark's own)")
    args = parser.parse_args(argv)
    if not (SRC / "ldtruth" / "cli.py").is_file():
        print(f"error: no ldtruth sources under {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1 or (args.scale is not None and args.scale <= 0):
        parser.error("--seconds and --scale must be positive")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
