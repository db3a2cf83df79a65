"""Self-test of the benchmark at a tiny scale.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = 0.002
WORKLOAD_NAMES = ("scale_c8", "loopy_near", "quads_pld_split")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", str(TINY)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_metrics_printed():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == \
        [(n, u, b) for n, u, b, *_ in tracer.LAYER_METRICS
         if n not in tracer.PLD_ONLY]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_run_prints_every_metric(capsys, workload):
    lines, result = _bench(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > workloads.CORPORA_PER_RUN
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in lines
               if not line.startswith(("#", "{"))}
    assert printed == {**dict(run.END_TO_END), **dict(run.REPORTED)}
    assert any(line.startswith("failed_share 0 ratio") for line in lines)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_metric(capsys, workload):
    lines, result = _bench(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0
    printed = {line.split()[0]: line.split()[1:3] for line in lines
               if not line.startswith(("#", "{", "|"))}
    for name, unit, *_ in tracer.LAYER_METRICS:
        value, shown_unit = printed[name]
        assert shown_unit == unit
        if name in tracer.PLD_ONLY and workload != "quads_pld_split":
            assert value == "missing"
        else:
            assert value != "missing", name
    expected = {n: u for n, u, *_ in tracer.LAYER_METRICS
                if n not in tracer.PLD_ONLY}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "| `resolve_all` |" in "\n".join(lines)


def test_tampered_decisions_raise_failed_share(capsys, monkeypatch):
    real = run.run_child
    calls = []

    def tampering(cmd, log_path):
        sample = real(cmd, log_path)
        calls.append(cmd)
        if len(calls) == workloads.CORPORA_PER_RUN + 1:  # corpus 0 again
            out = Path(cmd[cmd.index("--out") + 1]) / "decisions.jsonl"
            records = [json.loads(x) for x in out.read_text().splitlines()]
            records[0]["chosen"]["value"] = "tampered"
            out.write_text("".join(json.dumps(r) + "\n" for r in records))
        return sample

    monkeypatch.setattr(run, "run_child", tampering)
    lines, result = _bench(capsys, "loopy_near", 0)
    assert result["failed"] == 1 and not result["correct"]
    share = next(line for line in lines if line.startswith("failed_share"))
    assert float(share.split()[1]) == pytest.approx(1 / result["attempted"])
    assert any("outputs differ from the first run" in line for line in lines)


def test_unpatchable_or_uncalled_names_read_missing():
    targets = [tracer.Target("truth_engine.no_such_name", "mrf.loopy_bp")
               if t.name == "mrf.loopy_bp" else t
               for t in tracer.RESOLVE_TARGETS]
    with tracer.Tracer(targets) as traced:
        pass
    report = traced.report()
    report["extra"] = {}
    assert report["gone"] == ["mrf.loopy_bp"]
    values = tracer.layer_metrics(report)
    assert values["mrf.loopy_bp_calls"] is None
    assert values["values.normalize_calls"] is None   # wrapped, never called
    assert all(v is None for v in values.values())
    assert run._fmt(values["mrf.two_node_share"]) == "missing"


def test_broken_observer_only_hides_its_own_metrics():
    from ldtruth import truth_engine

    def broken(counts, args, kwargs, result):
        raise AttributeError("result changed shape")

    targets = [tracer.Target("truth_engine.loopy_bp", "mrf.loopy_bp",
                             observe=broken)]
    with tracer.Tracer(targets) as traced:
        field = truth_engine.MarkovField(unary=[(0.4, 0.6), (0.5, 0.5)],
                                         edges=[])
        truth_engine.loopy_bp(field)
    report = traced.report()
    report["extra"] = {}
    values = tracer.layer_metrics(report)
    assert values["mrf.loopy_bp_calls"] == 1
    assert values["mrf.bp_rounds_mean"] is None
    assert truth_engine.loopy_bp.__module__ == "ldtruth.mrf"  # restored


def test_counts_survive_calls_from_many_threads():
    from ldtruth import truth_engine
    field = truth_engine.MarkovField(unary=[(0.4, 0.6), (0.5, 0.5)],
                                     edges=[])
    targets = [t for t in tracer.RESOLVE_TARGETS if t.name == "mrf.loopy_bp"]

    def work():
        for _ in range(500):
            truth_engine.loopy_bp(field)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.Tracer(targets) as traced:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stat = traced.stats["mrf.loopy_bp"]
    assert stat.calls == 8 * 500
    assert stat.counts["two_node"] == 8 * 500


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale_c8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
