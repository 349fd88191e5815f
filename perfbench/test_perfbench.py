"""Tests of the benchmark itself, on the seconds-long smoke workloads.

Run from the root of the checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

EXACT_COUNTERS = (
    "enumeration.candidates",
    "poset.find_embedding_calls",
    "lattice.validate_lattice_calls",
)


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    if run.WORKLOADS[workload].jobs > (os.cpu_count() or 1):
        pytest.skip("needs more CPUs than this machine has")
    got = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert got.returncode == 0, got.stderr
    lines = got.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def layer_names() -> list[str]:
    return list(run.per_layer_metrics(None, 0.0, 0.0))


def check_schema(result: dict, names, units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == list(names)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
        assert metric["unit"] == units[name]


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WHY
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == layer_names()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_end_to_end(workload):
    meta, result = smoke(workload, trace=0)
    check_schema(result, run.END_TO_END, {k: v[0] for k, v in run.END_TO_END.items()})
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("git_sha", "python", "networkx", "nproc", "loadavg_before", "loadavg_after"):
        assert key in meta
    assert meta["seed"] == 3 and meta["error_rate"] == 0.0
    assert meta["speed"]["probe_cpus"] == list(run.work_cpus(run.WORKLOADS[workload]))
    assert all(f > 0 for f in meta["speed"]["unit_factors"])
    if workload == "analyze-batch":
        assert meta["batch_files"] == len(run.BLOCK_KINDS) and len(meta["batch_sha256"]) == 64


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_trace_counters_repeat(workload):
    first_meta, first = smoke(workload, trace=1)
    _, second = smoke(workload, trace=1)
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    check_schema(first, layer_names(), units)
    assert first_meta["trace_missing"] == []
    exact = [n for n in first["metrics"] if n in EXACT_COUNTERS or n.startswith("planarity.witness.")]
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if workload != "analyze-batch":
        assert first["metrics"]["enumeration.candidates"]["value"] > 0


def test_batch_is_seeded_and_holds_every_kind():
    pool = run.load_json("pool.json")
    a = run.make_batch(pool, 11, 2)
    assert a == run.make_batch(pool, 11, 2)
    assert a != run.make_batch(pool, 12, 2)
    assert sum(e["n"] == 10 for e in a) == 6
    assert all(11 <= e["n"] <= 13 for e in a if e["n"] != 10)
    witnesses = [e["witness"] or "" for e in a]
    assert any(w.endswith(".dual") for w in witnesses)
    assert any(w.endswith(".direct") for w in witnesses)
    assert any(e["planar"] for e in a)


def test_gate_fails_wrong_output(tmp_path):
    entry = run.load_json("pool.json")["n10"][0]
    out = tmp_path / "a.out"
    op = run.Op(1.0, 1.0, 1.0, True)
    out.write_text("n=10\nCon=4\nCon_oracle=5\nplanar_kr=true\nplanar_graph=true\n")
    assert not run.check_analyze(op, 0, out, entry).ok
    out.write_text("n=10\nCon=4\nCon_oracle=4\nplanar_kr=true\nplanar_graph=false\n")
    assert not run.check_analyze(op, 0, out, entry).ok
    out.write_text("n=10\nCon=4\nCon_oracle=4\nplanar_kr=true\nplanar_graph=true\n")
    assert "digest" in run.check_analyze(op, 0, out, entry).why
    ref = run.load_json("expected.json")["verify 8"]
    out.write_text("verify n=8\nclasses=222\nmany=84\nviolations=1\n")
    assert not run.check_sweep(op, 0, out, ref).ok
    assert not run.check_sweep(op, 1, out, ref).ok


def test_speed_factor_from_the_samples_taken_during_the_op():
    probes = run.SpeedProbes(())
    ref = run.REF_PROBE_S
    # Twenty samples inside the op at two speeds, two of them cut short by preemption.
    inside = ([(10.0 + i / 10, ref) for i in range(9)] + [(11.0 + i / 10, ref * 3) for i in range(9)]
              + [(11.85, ref * 10), (11.9, ref * 10)])
    probes.samples = {0: [(1.0, ref), *inside, (20.0, ref)], 1: [(10.5, ref * 5)]}
    op = run.Op(4.0, 2.0, 1.0, True, start=10.0, end=12.0, cpus=(0,))
    assert run.SpeedProbes.factor(probes, op) == pytest.approx(2.0)
    scaled = probes.scale(op)
    assert (scaled.wall_s, scaled.cpu_s) == pytest.approx((2.0, 1.0))
    # Too short to hold a sample: the nearest ones stand in.
    short = run.Op(0.01, 0.01, 1.0, True, start=19.99, end=20.0, cpus=(0,))
    assert probes.factor(short) == pytest.approx((1 + 10 + 10) / 3)  # median 10: none dropped
    assert probes.scale(run.Op(0.0, 0.0, 0.0, False)).wall_s == 0.0


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    value, label = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert label == "p75.0 of 40"
    assert run.tail([2.0, 1.0]) == (2.0, "max of 2")


def test_refuses_jobs_beyond_cpu_count(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    rc = run.main(["--workload", "verify-10-j2", "--seed", "1", "--seconds", "1"])
    assert rc != 0
    assert capsys.readouterr().out == ""


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    got = bench("--workload", "verify-10", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert got.returncode != 0
    assert got.stdout == ""
