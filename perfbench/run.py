"""Benchmark of the ``latcon`` command line, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-10 --seed 1 --seconds 25 --trace 0

Every operation is a fresh ``latcon`` process, run exactly as the
``latcon`` entry point runs it, with ``src/`` of this checkout on the
path.  The loop is closed: one client, one operation at a time.  Each
operation's stdout must match the digest recorded at the reference
commit (``expected.json``, ``pool.json``) and pass the content checks;
an operation that does not counts as failed and its time is dropped.

Workloads (why each exists is in ``WHY``):

* ``verify-10``: ``latcon verify 10``, the whole pipeline over 5,994 classes;
* ``spectrum-10``: ``latcon spectrum 10``, enumeration and congruence counts;
* ``analyze-batch``: ``latcon analyze FILE`` over a seeded batch of files;
* ``verify-10-j2``: ``latcon verify 10 --jobs 2``, the process-pool fan-out.

With ``--trace 0`` the run prints the end-to-end metrics (``END_TO_END``),
every time scaled to a reference machine speed that ``probe.py`` measures
beside the work (``SpeedProbes``; README.md, "Noise");
with ``--trace 1`` it runs one unit of work untraced and once more under
``tracer.py`` and prints the per-layer metrics (``per_layer_metrics``).
``--smoke`` shrinks every workload (n = 8 sweeps, one five-file block) for
the benchmark's own tests.  The last stdout line is the result object;
the line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The console script ``latcon`` is exactly this.
ENTRY = "import sys; from latcon.cli import main; sys.exit(main())"
SETUP_PROBE = "import latcon.cli; from latcon.planarity import kr_catalog; kr_catalog(13)"
VERSION_PROBE = (
    "import sys, latcon.cli, networkx; "
    "print(sys.version.split()[0], networkx.__version__, latcon.cli.__file__)"
)
SETUP_REPEATS = 10
RUN_LIMIT_S = 170.0

# Machine speed (README.md, "Noise"): probe.py times its work every
# PROBE_PERIOD_S on the CPUs the operations run on, and every time metric
# is scaled to the speed at which one probe sample takes REF_PROBE_S.
PROBE_PERIOD_S = 0.02
REF_PROBE_S = 0.0005
PROBE_OUTLIER = 3.0  # a sample this many times the median was preempted, and is dropped
PROBE_MIN_SAMPLES = 3

WHY = {
    "verify-10": "latcon verify 10 serial: the whole pipeline, every per-class layer shows",
    "spectrum-10": "latcon spectrum 10: enumeration and con_count only, no planarity or dismantling",
    "analyze-batch": "one latcon analyze process per seeded file: set-up and oracles, no enumeration",
    "verify-10-j2": "latcon verify 10 --jobs 2: the process-pool fan-out, no other workload runs it",
}

# name -> (unit, better, bound)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "items_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "latency_p50_s": ("s", "lower", 0.25),
    "latency_tail_s": ("s", "lower", 0.25),
}

CATALOG = ("A_0", "A_1", "A_2", "B", "C", "D", "E_0", "E_1", "E_2",
           "F_0", "F_1", "F_2", "G_0", "H_0")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # latcon arguments of a sweep; empty for analyze-batch
    smoke_argv: tuple[str, ...]
    jobs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-10", ("verify", "10"), ("verify", "8")),
        Workload("spectrum-10", ("spectrum", "10"), ("spectrum", "8")),
        Workload("analyze-batch", (), ()),
        Workload("verify-10-j2", ("verify", "10", "--jobs", "2"), ("verify", "8", "--jobs", "2"), jobs=2),
    )
}

# A unit of analyze-batch work is one block of five files, three of them
# 10-element classes (the partition oracle runs) and two bigger lattices
# (it does not), so that the per-file median falls among the oracle files
# and every unit holds the same mix.
BLOCK_KINDS = ("n10", "big", "n10", "big", "n10")


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed as a result."""


@dataclass
class Op:
    """One finished latcon process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    why: str = ""
    start: float = 0.0  # perf_counter at start and end
    end: float = 0.0
    cpus: tuple[int, ...] = ()  # the CPUs it ran on


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, op: Op, label: str) -> None:
        self.attempted += 1
        if not op.ok:
            self.failed += 1
            self.failures.append(f"{label}: {op.why}")

    def absorb(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(args: list[str], stdout_path: Path, deadline: float,
                cpus: tuple[int, ...]) -> tuple[Op, int]:
    """Run one process on ``cpus`` to completion; wall, cpu and peak RSS from wait4.

    wait4 reports the child's usage together with the descendants it waited
    for, so the pool workers of ``--jobs`` count in cpu and peak RSS.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return Op(0.0, 0.0, 0.0, False, "run time limit reached"), -1
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            args, stdout=out, stderr=err, cwd=ROOT, env=child_env(), start_new_session=True
        )
        try:
            os.sched_setaffinity(proc.pid, cpus)
        except ProcessLookupError:  # already gone; wait4 still reaps it
            pass
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers left behind by a killed parent
    cpu = usage.ru_utime + usage.ru_stime
    return Op(t1 - t0, cpu, usage.ru_maxrss / 1024.0, True, start=t0, end=t1, cpus=cpus), proc.returncode


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def latcon_args(argv) -> list[str]:
    return [sys.executable, "-c", ENTRY, *argv]


def tracer_args(summary: Path, argv) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), str(summary), *argv]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, eq, value = line.partition("=")
        if eq and " " not in key:
            out.setdefault(key, value)
    return out


# ---------------------------------------------------------------------------
# Output gate
# ---------------------------------------------------------------------------

def load_json(name: str):
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


def sweep_reference(expected: dict, argv) -> dict:
    """The reference entry of a sweep; output must not depend on --jobs."""
    serial = [a for i, a in enumerate(argv) if a != "--jobs" and (i == 0 or argv[i - 1] != "--jobs")]
    return expected[" ".join(serial)]


def check_sweep(op: Op, rc: int, out: Path, ref: dict) -> Op:
    fields = key_values(out.read_text(encoding="utf-8", errors="replace"))
    wrong = [k for k, v in ref["fields"].items() if fields.get(k) != str(v)]
    if rc != ref["exit_code"]:
        return _fail(op, f"exit code {rc}, expected {ref['exit_code']}")
    if wrong:
        return _fail(op, "fields differ: " + ", ".join(f"{k}={fields.get(k)}" for k in wrong))
    if sha256(out) != ref["stdout_sha256"]:
        return _fail(op, "stdout differs from the reference digest")
    return op


def check_analyze(op: Op, rc: int, out: Path, entry: dict) -> Op:
    if rc != 0:
        return _fail(op, f"exit code {rc}")
    f = key_values(out.read_text(encoding="utf-8", errors="replace"))
    if f.get("n") != str(entry["n"]):
        return _fail(op, f"n={f.get('n')}, expected {entry['n']}")
    if "Con_oracle" in f and f["Con_oracle"] != f.get("Con"):
        return _fail(op, f"Con={f.get('Con')} but Con_oracle={f['Con_oracle']}")
    if f.get("planar_kr") is None or f.get("planar_kr") != f.get("planar_graph"):
        return _fail(op, f"planar_kr={f.get('planar_kr')} but planar_graph={f.get('planar_graph')}")
    if sha256(out) != entry["stdout_sha256"]:
        return _fail(op, "stdout differs from the reference digest")
    return op


def _fail(op: Op, why: str) -> Op:
    return dataclasses.replace(op, ok=False, why=why)


# ---------------------------------------------------------------------------
# The analyze-batch generator
# ---------------------------------------------------------------------------

def lattice_text(entry: dict) -> str:
    return f"{entry['n']}\n" + "".join(f"{a} {b}\n" for a, b in entry["covers"])


def make_batch(pool: dict, seed: int, blocks: int) -> list[dict]:
    """Pool entries in blocks of BLOCK_KINDS, chosen and ordered by the seed.

    The first bigger lattices are forced to cover the kinds the batch must
    hold: non-planar with the witness on the dual side, planar, and
    non-planar with a direct witness.
    """
    rng = random.Random(seed)
    queues = {kind: rng.sample(pool[kind], len(pool[kind])) for kind in ("n10", "big")}
    big = queues["big"]
    forced = [
        rng.choice([e for e in big if (e["witness"] or "").endswith(".dual")]),
        rng.choice([e for e in big if e["planar"]]),
        rng.choice([e for e in big if (e["witness"] or "").endswith(".direct")]),
    ]
    queues["big"] = forced + [e for e in big if e not in forced]
    taken = {"n10": 0, "big": 0}
    batch = []
    for _ in range(blocks):
        for kind in BLOCK_KINDS:
            q = queues[kind]
            batch.append(q[taken[kind] % len(q)])
            taken[kind] += 1
    return batch


def write_batch(batch: list[dict], workdir: Path) -> tuple[list[Path], str]:
    """Write the files; returns their paths and a digest of the file list."""
    paths = []
    digest = hashlib.sha256()
    for i, entry in enumerate(batch):
        path = workdir / f"{i:03d}-{entry['id']}.lat"
        text = lattice_text(entry)
        path.write_text(text, encoding="utf-8")
        paths.append(path)
        digest.update(f"{path.name}\n{text}".encode())
    return paths, digest.hexdigest()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    reported and labelled so.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], f"max of {n}"
    return s[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def setup_ops(deadline: float, workdir: Path, repeats: int, tally: Tally,
              cpus: tuple[int, ...]) -> list[Op]:
    """Fresh processes that import latcon.cli, build kr_catalog(13) and exit."""
    ops = []
    for _ in range(repeats):
        op, rc = run_process([sys.executable, "-c", SETUP_PROBE], workdir / "setup.out", deadline, cpus)
        if op.ok and rc != 0:
            op = _fail(op, f"exit code {rc}")
        tally.add(op, "setup")
        if op.ok:
            ops.append(op)
    return ops


class SpeedProbes:
    """One probe.py per CPU, timing the machine's speed while the work runs."""

    def __init__(self, cpus: tuple[int, ...]):
        self.samples: dict[int, list[tuple[float, float]]] = {}
        self.procs = {
            cpu: subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), str(cpu), str(PROBE_PERIOD_S)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for cpu in cpus
        }

    def stop(self) -> None:
        """Close every probe's stdin and collect its samples; kill it if it hangs."""
        for cpu, proc in self.procs.items():
            try:
                out, _ = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                out = ""
            self.samples[cpu] = [(float(e), float(d)) for e, d in
                                 (line.split() for line in out.splitlines())]
        self.procs = {}

    def factor(self, op: Op) -> float:
        """How much slower than REF_PROBE_S the probe ran on op's CPUs while op ran.

        The mean of the samples taken during op, less those over PROBE_OUTLIER
        times their median; when op is too short to hold PROBE_MIN_SAMPLES,
        the nearest ones.
        """
        near = [(e, d) for cpu in op.cpus for e, d in self.samples.get(cpu, [])]
        if len(near) < PROBE_MIN_SAMPLES:
            raise BenchError("the speed probe took too few samples")
        inside = [d for e, d in near if op.start <= e <= op.end]
        if len(inside) < PROBE_MIN_SAMPLES:
            mid = (op.start + op.end) / 2
            inside = [d for e, d in sorted(near, key=lambda s: abs(s[0] - mid))[:PROBE_MIN_SAMPLES]]
        limit = PROBE_OUTLIER * statistics.median(inside)
        kept = [d for d in inside if d <= limit]
        return statistics.fmean(kept) / REF_PROBE_S

    def scale(self, op: Op) -> Op:
        """op with its wall and CPU time at the reference speed; a failed op as it is."""
        if not op.ok:
            return op
        f = self.factor(op)
        return dataclasses.replace(op, wall_s=op.wall_s / f, cpu_s=op.cpu_s / f)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@dataclass
class Unit:
    """One unit of work: a sweep, or one block of analyze files."""

    ops: list[Op]
    tally: Tally

    @property
    def ok(self) -> bool:
        return self.tally.failed == 0

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)


def run_sweep_unit(argv, expected, workdir: Path, deadline: float, trace: bool,
                   summaries: list, cpus: tuple[int, ...]) -> Unit:
    ref = sweep_reference(expected, argv)
    out = workdir / "sweep.out"
    summary = workdir / "sweep.trace.json"
    args = tracer_args(summary, argv) if trace else latcon_args(argv)
    op, rc = run_process(args, out, deadline, cpus)
    if op.ok:
        op = check_sweep(op, rc, out, ref)
    if op.ok and trace:
        summaries.append(json.loads(summary.read_text(encoding="utf-8")))
    tally = Tally()
    tally.add(op, " ".join(argv))
    return Unit([op], tally)


def run_block_unit(block: list[tuple[Path, dict]], workdir: Path, deadline: float, trace: bool,
                   summaries: list, cpus: tuple[int, ...]) -> Unit:
    ops = []
    tally = Tally()
    for path, entry in block:
        out = workdir / (path.stem + ".out")
        summary = workdir / (path.stem + ".trace.json")
        argv = ("analyze", str(path.relative_to(ROOT)))
        args = tracer_args(summary, argv) if trace else latcon_args(argv)
        op, rc = run_process(args, out, deadline, cpus)
        if op.ok:
            op = check_analyze(op, rc, out, entry)
        if op.ok and trace:
            summaries.append(json.loads(summary.read_text(encoding="utf-8")))
        tally.add(op, path.name)
        ops.append(op)
    return Unit(ops, tally)


def end_to_end_metrics(units: list[Unit], setup: list[Op], items: int) -> tuple[dict, str]:
    """The metrics from the units that passed the gate, and the tail's label."""
    good = [u for u in units if u.ok]
    ops = [op for u in good for op in u.ops]
    walls = [u.wall_s for u in good]
    latencies = [op.wall_s for op in ops]
    tail_value, tail_label = tail(latencies)
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(u.cpu_s for u in good),
        "peak_rss_mb": max(op.rss_mb for op in ops),
        "items_per_s": items / statistics.median(walls),
        "setup_s": statistics.median(op.wall_s for op in setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
    }
    metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
    return metrics, tail_label


def merge_summaries(summaries: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    results: dict[str, list] = {}
    merged = {"import_s": 0.0, "span_count": 0, "semilattices_kept": 0, "missing": set()}
    for s in summaries:
        merged["import_s"] += s["import_s"]
        merged["span_count"] += s["span_count"]
        merged["semilattices_kept"] += s["semilattices_kept"]
        merged["missing"].update(s["missing"])
        for name, span in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "via": {}})
            acc["calls"] += span["calls"]
            acc["total_s"] += span["total_s"]
            acc["self_s"] += span["self_s"]
            for mod, c in span["via"].items():
                acc["via"][mod] = acc["via"].get(mod, 0) + c
        for name, values in s["results"].items():
            results.setdefault(name, []).extend(values)
    merged["spans"] = spans
    merged["results"] = results
    merged["missing"] = sorted(merged["missing"])
    return merged


def per_layer_metrics(merged: dict | None, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from the merged span summaries of one traced unit."""
    spans = merged["spans"] if merged else {}

    def span(name: str) -> dict:
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "via": {}})

    def calls(name: str) -> int:
        return span(name)["calls"]

    results = merged["results"] if merged else {}
    candidates = sum(results.get("enumeration._extend_semilattice", []))
    kept = merged["semilattices_kept"] if merged else 0
    witnesses: dict[str, int] = {}
    for w in results.get("planarity.is_planar_kr", []):
        if w is not None:
            witnesses[w] = witnesses.get(w, 0) + 1
    kr_calls = calls("planarity.is_planar_kr")
    validate_via = span("lattice.validate_lattice")["via"]

    v: dict[str, tuple[float, str]] = {
        "enumeration.enumerate_lattices_s": (span("enumeration.enumerate_lattices")["total_s"], "s"),
        "enumeration.candidates": (candidates, "count"),
        "enumeration.kept_ratio": (kept / candidates if candidates else 0.0, "ratio"),
        "enumeration.verify_theorem_self_s": (span("enumeration.verify_theorem")["self_s"], "s"),
        "poset.canonical_form_calls": (calls("poset.canonical_form"), "count"),
        "poset.canonical_form_s": (span("poset.canonical_form")["total_s"], "s"),
        "poset.canonical_relabel_calls": (calls("poset.canonical_relabel"), "count"),
        "poset.canonical_relabel_s": (span("poset.canonical_relabel")["total_s"], "s"),
        "poset.find_embedding_calls": (calls("poset.find_embedding"), "count"),
        "poset.find_embedding_s": (span("poset.find_embedding")["total_s"], "s"),
        "planarity.embeddings_per_call": (
            calls("poset.find_embedding") / kr_calls if kr_calls else 0.0, "ratio"),
        "poset.count_downsets_s": (span("poset.count_downsets")["total_s"], "s"),
        "lattice.validate_lattice_calls": (calls("lattice.validate_lattice"), "count"),
        "lattice.validate_lattice_calls_enumeration": (validate_via.get("enumeration", 0), "count"),
        "lattice.validate_lattice_calls_planarity": (validate_via.get("planarity", 0), "count"),
        "lattice.validate_lattice_s": (span("lattice.validate_lattice")["total_s"], "s"),
        "lattice.irreducibles_s": (span("lattice.irreducibles")["total_s"], "s"),
        "congruence.con_count_calls": (calls("congruence.con_count"), "count"),
        "congruence.con_count_s": (span("congruence.con_count")["total_s"], "s"),
        "congruence.jir_quasiorder_s": (span("congruence.jir_quasiorder")["total_s"], "s"),
        "congruence.principal_congruence_calls": (calls("congruence.principal_congruence"), "count"),
        "congruence.con_count_oracle_calls": (calls("congruence.con_count_oracle"), "count"),
        "congruence.con_count_oracle_s": (span("congruence.con_count_oracle")["total_s"], "s"),
        "planarity.is_planar_kr_calls": (kr_calls, "count"),
        "planarity.is_planar_kr_s": (span("planarity.is_planar_kr")["total_s"], "s"),
        "planarity.is_dismantlable_s": (span("planarity.is_dismantlable")["total_s"], "s"),
        "planarity.is_dismantlable_self_s": (span("planarity.is_dismantlable")["self_s"], "s"),
        "planarity.graph_oracle_s": (span("planarity.is_planar_graph_oracle")["total_s"], "s"),
        "planarity.kr_catalog_s": (span("planarity.kr_catalog")["total_s"], "s"),
    }
    for entry in CATALOG:
        for side in ("direct", "dual"):
            v[f"planarity.witness.{entry}.{side}"] = (witnesses.get(f"{entry}.{side}", 0), "count")
    v["cli.import_s"] = (merged["import_s"] if merged else 0.0, "s")
    v["cli.parse_lattice_text_s"] = (span("cli.parse_lattice_text")["total_s"], "s")
    v["cli.main_self_s"] = (span("cli.main")["self_s"], "s")
    v["trace.spans"] = (merged["span_count"] if merged else 0, "count")
    v["trace.traced_wall_s"] = (traced_wall, "s")
    v["trace.untraced_wall_s"] = (untraced_wall, "s")
    v["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in v.items()}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() or None


def versions(workdir: Path, deadline: float, cpus: tuple[int, ...]) -> dict:
    out = workdir / "versions.out"
    op, rc = run_process([sys.executable, "-c", VERSION_PROBE], out, deadline, cpus)
    parts = out.read_text(encoding="utf-8").split()
    if not op.ok or rc != 0 or len(parts) != 3:
        raise BenchError("cannot import latcon.cli from src/: " + out.with_suffix(".err").read_text())
    python, networkx, cli_file = parts
    if not Path(cli_file).resolve().is_relative_to(SRC):
        raise BenchError(f"latcon imported from {cli_file}, not from {SRC}")
    return {"python": python, "networkx": networkx}


def serial_cpus() -> tuple[int, ...]:
    """The one CPU every single-process operation is pinned to."""
    return (max(os.sched_getaffinity(0)),)


def work_cpus(w: Workload) -> tuple[int, ...]:
    """The CPUs w's operations run on: all of them for a process pool."""
    return tuple(sorted(os.sched_getaffinity(0))) if w.jobs > 1 else serial_cpus()


def run(w: Workload, seed: int, seconds: int, trace: bool, smoke: bool, workdir: Path,
        probes: SpeedProbes | None) -> dict:
    """One run; ``probes`` (running on work_cpus(w)) scales the times unless tracing."""
    deadline = time.monotonic() + RUN_LIMIT_S
    one, cpus = serial_cpus(), work_cpus(w)
    meta = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    meta.update(versions(workdir, deadline, cpus))  # also warms the bytecode cache
    expected = load_json("expected.json")
    argv = w.smoke_argv if smoke else w.argv
    blocks: list[list[tuple[Path, dict]]] = []
    if not argv:
        # A block takes well over a second, so the run never runs out of them.
        entries = make_batch(load_json("pool.json"), seed, 1 if smoke else seconds)
        paths, digest = write_batch(entries, workdir)
        files = list(zip(paths, entries))
        k = len(BLOCK_KINDS)
        blocks = [files[i:i + k] for i in range(0, len(files), k)]
        meta["batch_files"] = len(files)
        meta["batch_sha256"] = digest
        items = k
    else:
        meta["command"] = ["latcon", *argv]
        items = sweep_reference(expected, argv)["classes"]

    def unit(i: int, traced: bool, summaries: list) -> Unit:
        if blocks:
            return run_block_unit(blocks[i % len(blocks)], workdir, deadline, traced, summaries, cpus)
        return run_sweep_unit(argv, expected, workdir, deadline, traced, summaries, cpus)

    tally = Tally()
    setup: list[Op] = []
    metrics = None
    if trace:
        untraced = unit(0, False, [])
        summaries: list = []
        traced = unit(0, True, summaries)
        units = [untraced, traced]
        merged = merge_summaries(summaries) if summaries else None
        metrics = per_layer_metrics(merged, traced.wall_s, untraced.wall_s)
        meta["trace_scope"] = (
            "parent process only: pool workers are not traced" if w.jobs > 1 else "whole command")
        meta["trace_missing"] = merged["missing"] if merged else []
    else:
        # Half the set-up probes run before the work and half after it, so
        # that the median spans the run rather than one moment of it.
        setup = setup_ops(deadline, workdir, SETUP_REPEATS // 2, tally, one)
        units = []
        start = time.perf_counter()
        while True:
            units.append(unit(len(units), False, []))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(units) > seconds or time.monotonic() > deadline:
                break
        setup += setup_ops(deadline, workdir, SETUP_REPEATS - SETUP_REPEATS // 2, tally, one)
        raw_walls = [u.wall_s for u in units]
        raw_setup = [op.wall_s for op in setup]
        probes.stop()
        units = [Unit([probes.scale(op) for op in u.ops], u.tally) for u in units]
        setup = [probes.scale(op) for op in setup]
        meta["speed"] = {
            "probe_cpus": list(cpus),
            "ref_probe_s": REF_PROBE_S,
            "unit_factors": [raw / u.wall_s for raw, u in zip(raw_walls, units) if u.ok],
            "raw_wall_s": raw_walls,
            "raw_setup_s": raw_setup,
        }
    for u in units:
        tally.absorb(u.tally)
    if not trace and any(u.ok for u in units) and setup:
        metrics, meta["latency_tail"] = end_to_end_metrics(units, setup, items)
        meta["units"] = len(units)
        if blocks:
            meta["files_run"] = [e["id"] for block in blocks[: len(units)] for _, e in block]
    meta["error_rate"] = tally.failed / tally.attempted if tally.attempted else None
    meta["failures"] = tally.failures[:20]
    meta["loadavg_after"] = os.getloadavg()
    correct = tally.failed == 0 and metrics is not None
    return {
        "meta": meta,
        "result": {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics or {},
        },
    }


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="latcon benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="n = 8 sweeps and five analyze files")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        if not (SRC / "latcon" / "cli.py").is_file():
            raise BenchError(f"no latcon sources under {SRC}")
        cpus = os.cpu_count() or 1
        if w.jobs > cpus:
            raise BenchError(f"{w.name} needs {w.jobs} jobs but os.cpu_count() is {cpus}")
        workdir = WORK / f"{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        probes = None if args.trace else SpeedProbes(work_cpus(w))
        try:
            out = run(w, args.seed, args.seconds, bool(args.trace), args.smoke, workdir, probes)
        finally:
            if probes:
                probes.stop()
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
