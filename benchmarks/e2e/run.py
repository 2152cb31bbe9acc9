#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` CLI: campaigns and paper experiments.

Each workload runs the real ``repro`` command line in a child process
(``child.py``), one child at a time, and times it from process launch to
exit.  The run prints every metric by name with its unit, checks that the
outputs are correct, writes a stamped JSON report and ends with a one-line
JSON summary.

Usage::

    python benchmarks/e2e/run.py                          # all workloads, 5 repeats
    python benchmarks/e2e/run.py --workload flat-many --seed 3 --seconds 20
    python benchmarks/e2e/run.py --workloads paper-figure2,paper-pulling --repeats 3
    python benchmarks/e2e/run.py --trace                  # adds one traced pass per workload
    python benchmarks/e2e/run.py --compare A.json B.json  # B against A, per workload and metric

``--seconds T`` keeps starting timed repeats while the next one still fits in
T seconds of timed work per workload (at least one).  Without it the run
makes ``--repeats`` repeats (default 5).  The workload order rotates on each
repeat.  With ``--trace`` (or ``--trace 1``) the final line carries the
per-layer metrics of the traced pass instead of the end-to-end ones.

The run exits 1 when any correctness check fails, and 2 when the program's
source tree is missing.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_e2e"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN_JSON = HERE / "golden.json"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from child import SPAN_NAMES  # noqa: E402

#: Extra launches per workload that stop at the first executor entry, so
#: ``setup_s`` is a median over several set-ups even with one timed repeat.
SETUP_PROBES = 4
#: A child still running after this many seconds is killed and fails.
CHILD_TIMEOUT_S = 150.0
DEFAULT_REPEATS = 5

#: End-to-end metrics of BENCHMARK.json: name -> (unit, better).  Bounds live
#: there.  They are the ones that stay steady across workload seeds: the
#: amount of simulated work changes with the seed (paper-figure2's total trial
#: rounds vary by about +-20%), so the timed work is reported per trial round.
END_TO_END = {
    "trial_rounds_per_s": ("1/s", "higher"),
    "trial_rounds_per_cpu_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Further metrics --compare judges between two reports of the same seed:
#: name -> (unit, better, bound).  ``wall_s`` and ``cpu_s`` follow the
#: seed's amount of work, ``resume_s`` exists on flat-many only, and any
#: increase of ``failed_frac`` is a regression.
EXTRA_BOUNDS = {
    "wall_s": ("s", "lower", 0.10),
    "cpu_s": ("s", "lower", 0.10),
    "resume_s": ("s", "lower", 0.10),
    "failed_frac": ("ratio", "lower", 0.0),
}

#: Algorithms whose store rows must never report ``within_bound: false``:
#: the Theorem 1 constructions, whose bound is a proven guarantee.
GUARANTEED = ("corollary1(", "figure2(")


@dataclass(frozen=True)
class Workload:
    """One benchmarked ``repro`` command and what its output must satisfy.

    A campaign workload (``campaign`` set) is prepared, untimed, with
    ``repro campaign define <campaign> --seed S``; its timed step is
    ``campaign run --quiet`` into a fresh store, followed by a timed
    ``campaign resume`` over the complete store when ``resume`` is set.  An
    experiment workload times ``repro <command> --seed S``.
    """

    name: str
    command: tuple[str, ...] = ()
    campaign: tuple[str, ...] = ()
    resume: bool = False
    #: The ``(algorithm prefix, adversary)`` store groups that are
    #: bit-identical across engines; only they enter the store digest.
    digest_groups: tuple[tuple[str, str], ...] = ()
    #: Every printed table row must read ``within_bound`` True.
    table_within_bound: bool = False


# Each timed step takes 7-17 s on a 2-vCPU x86-64 VM (Python 3.11, NumPy 2.4);
# README.md gives the traced shares behind each choice.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="flat-many",
            campaign=(
                "--name", "flat-many", "--engine", "batch",
                "--algorithm", "naive-majority:n=24,c=4,claimed_resilience=2",
                "--algorithm", "randomized-follow-majority:n=16,f=5,c=2",
                "--adversary", "mimic", "--adversary", "random-state",
                "--runs", "10000", "--max-rounds", "120",
                "--stop-after-agreement", "8",
            ),
            resume=True,
            digest_groups=(("naive-majority(", "mimic"),),
        ),
        Workload(
            name="theorem1-deep",
            campaign=(
                "--name", "theorem1-deep", "--engine", "batch",
                "--algorithm", "figure2:levels=1,c=2",
                "--algorithm", "corollary1:f=1,c=2",
                "--adversary", "crash", "--adversary", "phase-king-skew",
                "--runs", "1000", "--max-rounds", "400",
                "--stop-after-agreement", "10",
            ),
            digest_groups=(("figure2(", "crash"), ("corollary1(", "crash")),
        ),
        Workload(
            name="paper-figure2",
            command=("experiment", "figure2", "--trials", "30"),
            table_within_bound=True,
        ),
        Workload(
            name="paper-pulling",
            command=("experiment", "pulling", "--trials", "1", "--link-seeds", "4"),
        ),
    )
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.total_s"] = "s"
        units[f"{span}.self_s"] = "s"
    units.update(
        {
            "wall_s": "s",
            "cpu_s": "s",
            "cli.import_s": "s",
            "resume_s": "s",
            "executor.batched_frac": "ratio",
            "executor.fallback_runs": "count",
            "engine.trial_rounds": "count",
            "store.bytes": "bytes",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for a zero median)."""
    stats = summarize(values)
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def verdict(
    before: list[float], after: list[float], better: str, bound: float
) -> tuple[str, float]:
    """Judge ``after`` against ``before``: (verdict, relative change).

    The change is signed so that positive means worse.  The verdict is
    ``unresolved`` when either side's quartile spread exceeds the bound,
    unless every ``after`` sample beats every ``before`` sample; otherwise
    ``worse`` / ``better`` when the medians differ by more than the bound,
    and ``within`` when they do not.
    """
    sign = 1.0 if better == "lower" else -1.0
    old, new = statistics.median(before), statistics.median(after)
    if old:
        change = sign * (new - old) / old
    else:
        change = 0.0 if new == old else math.copysign(math.inf, sign * (new - old))
    all_better = (
        max(after) < min(before) if better == "lower" else min(after) > max(before)
    )
    if max(relative_spread(before), relative_spread(after)) > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within", change


# ---------------------------------------------------------------------- #
# Child processes
# ---------------------------------------------------------------------- #


@dataclass
class Invocation:
    """One finished child: its exit, resources, and the stamps it wrote."""

    code: int
    launch: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stamps: dict[str, Any]
    stdout: bytes
    stderr: bytes


def child_env(**extra: str) -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
        **extra,
    }


def invoke(
    repro_args: list[str], workdir: Path, *, trace: bool = False, setup_only: bool = False
) -> Invocation:
    """Run ``child.py <repro_args>`` and wait for it, timing launch to exit."""
    stamps_path = workdir / "stamps.json"
    stamps_path.unlink(missing_ok=True)
    env = child_env(
        E2E_STAMPS=str(stamps_path),
        E2E_TRACE="1" if trace else "0",
        E2E_SETUP_ONLY="1" if setup_only else "0",
    )
    stdout_path, stderr_path = workdir / "stdout", workdir / "stderr"
    with stdout_path.open("wb") as out, stderr_path.open("wb") as err:
        launch = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *repro_args],
            stdout=out,
            stderr=err,
            cwd=workdir,
            env=env,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    # wait4 reaped the child; tell Popen so it never waits for it again.
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stamps = json.loads(stamps_path.read_text()) if stamps_path.exists() else {}
    return Invocation(
        code=code,
        launch=launch,
        wall_s=end - launch,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stamps=stamps,
        stdout=stdout_path.read_bytes(),
        stderr=stderr_path.read_bytes(),
    )


def report_failure(label: str, invocation: Invocation) -> None:
    tail = invocation.stderr.decode(errors="replace").strip().splitlines()[-5:]
    print(f"  {label}: exit {invocation.code}", *tail, sep="\n    ", file=sys.stderr)


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #


@dataclass
class StoreScan:
    """What the checks need from one result store, read line by line.

    The store is never held in memory: on Linux a child's ``ru_maxrss``
    starts from this process's own high-water mark (``vfork`` shares it
    until ``exec``), so the parent must stay far smaller than any child.
    """

    rows: int
    digest: str
    guarantees_hold: bool

    @classmethod
    def read(cls, path: Path, groups: tuple[tuple[str, str], ...]) -> "StoreScan":
        """Count rows, check the Theorem 1 rows, and digest the bit-identical groups.

        The digest is the sha256 over the sorted sha256 digests of the
        chosen lines, so it does not depend on the order runs completed in.
        """
        rows = 0
        hold = True
        chosen = []
        with path.open("rb") as handle:
            for line in handle:
                line = line.rstrip(b"\n")
                row = json.loads(line)
                rows += 1
                if row["algorithm"].startswith(GUARANTEED) and row["within_bound"] is False:
                    hold = False
                if any(
                    row["algorithm"].startswith(prefix) and row["adversary"] == adversary
                    for prefix, adversary in groups
                ):
                    chosen.append(hashlib.sha256(line).digest())
        digest = hashlib.sha256(b"".join(sorted(chosen))).hexdigest()
        return cls(rows=rows, digest=digest, guarantees_hold=hold)


def table_rows_within_bound(text: str) -> bool:
    """Every row of every printed table reads ``within_bound`` True."""
    lines = text.splitlines()
    seen = 0
    for index, header in enumerate(lines):
        if "within_bound" not in header.split():
            continue
        column = header.index("within_bound")
        for row in lines[index + 2 :]:
            if not row.strip() or row.startswith(("note:", "==")):
                break
            seen += 1
            if row[column:].strip() != "True":
                return False
    return seen > 0


# ---------------------------------------------------------------------- #
# One workload
# ---------------------------------------------------------------------- #


@dataclass
class WorkloadRun:
    """Everything measured for one workload in one benchmark run."""

    workload: Workload
    seed: int
    workdir: Path
    samples: dict[str, list[float]] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traced: dict[str, Any] | None = None

    @property
    def spec(self) -> Path:
        return self.workdir / f"{self.workload.name}.campaign.json"

    @property
    def store(self) -> Path:
        return self.workdir / f"{self.workload.name}.jsonl"

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def prepare(self) -> None:
        """Write the campaign definition (untimed)."""
        if not self.workload.campaign:
            return
        subprocess.run(
            [
                sys.executable, "-m", "repro", "campaign", "define",
                *self.workload.campaign,
                "--seed", str(self.seed), "--out", str(self.spec),
            ],
            check=True,
            cwd=self.workdir,
            env=child_env(),
            stdout=subprocess.DEVNULL,
        )

    def timed_args(self, verb: str = "run") -> list[str]:
        if self.workload.campaign:
            return ["campaign", verb, str(self.spec), "--store", str(self.store), "--quiet"]
        return [*self.workload.command, "--seed", str(self.seed)]

    def probe_setup(self) -> None:
        """One launch that stops at the first executor entry."""
        self.store.unlink(missing_ok=True)
        invocation = invoke(self.timed_args(), self.workdir, setup_only=True)
        entry = invocation.stamps.get("first_run_entry")
        self.check("executor entered", invocation.code == 0 and entry is not None)
        if entry is not None:
            self.add("setup_s", entry - invocation.launch)

    def run_once(self, trace: bool = False) -> float:
        """One timed repeat (the traced pass when ``trace``); returns its wall time."""
        self.store.unlink(missing_ok=True)
        main = invoke(self.timed_args(), self.workdir, trace=trace)
        stamps = main.stamps
        runs = stamps.get("runs", 0)
        failed = stamps.get("failed", 0) if main.code == 0 else max(runs, 1)
        if main.code != 0:
            report_failure(f"{self.workload.name} {'traced ' if trace else ''}run", main)
        self.check("exit code 0", main.code == 0)
        self.check("executor entered", stamps.get("first_run_entry") is not None)
        self.check("no failed runs", failed == 0)
        spans = [stamps.get("spans", {})]
        timed = main.wall_s

        digest = None
        store_bytes = 0
        if self.workload.campaign and self.store.exists():
            store_bytes = self.store.stat().st_size
            scan = StoreScan.read(self.store, self.workload.digest_groups)
            self.check("store holds every run", scan.rows == runs)
            self.check("Theorem 1 rows within bound", scan.guarantees_hold)
            digest = scan.digest
        elif not self.workload.campaign:
            digest = hashlib.sha256(main.stdout).hexdigest()
            if self.workload.table_within_bound:
                self.check(
                    "table rows within bound",
                    table_rows_within_bound(main.stdout.decode(errors="replace")),
                )
        if digest is not None:
            self.digests.append(digest)

        resume = None
        if self.workload.resume:
            resume = invoke(self.timed_args("resume"), self.workdir, trace=trace)
            if resume.code != 0:
                report_failure(f"{self.workload.name} resume", resume)
            self.check("resume exit code 0", resume.code == 0)
            self.check("resume executes no runs", resume.stamps.get("runs", 1) == 0)
            spans.append(resume.stamps.get("spans", {}))
            timed += resume.wall_s
        self.store.unlink(missing_ok=True)

        if trace:
            self.traced = {
                "wall_s": main.wall_s,
                "spans": merge_spans(spans),
                "unwrapped": stamps.get("unwrapped", []),
            }
            return timed
        self.attempted += max(runs, 1) if main.code != 0 else runs
        self.failed += failed
        rounds = stamps.get("rounds", 0)
        self.add("wall_s", main.wall_s)
        self.add("cpu_s", main.cpu_s)
        self.add("peak_rss_mb", main.peak_rss_mb)
        self.add("trial_rounds_per_s", rounds / main.wall_s)
        self.add("trial_rounds_per_cpu_s", rounds / main.cpu_s if main.cpu_s else 0.0)
        self.add("engine.trial_rounds", rounds)
        self.add("executor.batched_frac", stamps.get("batched", 0) / runs if runs else 0.0)
        self.add("executor.fallback_runs", stamps.get("fallback", 0))
        self.add("store.bytes", store_bytes)
        if stamps.get("first_run_entry") is not None:
            self.add("setup_s", stamps["first_run_entry"] - main.launch)
        if stamps.get("main_entry") is not None:
            self.add("cli.import_s", stamps["main_entry"] - main.launch)
        if resume is not None:
            self.add("resume_s", resume.wall_s)
        return timed

    def finish(self, golden: dict[str, Any]) -> None:
        """Checks that need every repeat: digest stability and the golden value."""
        self.check("digest identical across repeats", len(set(self.digests)) <= 1)
        if self.seed == golden.get("seed") and self.digests:
            self.check(
                "digest matches golden.json",
                golden["digests"].get(self.workload.name) == self.digests[0],
            )

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def median(self, metric: str) -> float:
        """Median of a metric's samples; 0 when a failed child left none."""
        return statistics.median(self.samples.get(metric) or [0.0])

    def end_to_end(self) -> dict[str, float]:
        return {name: self.median(name) for name in END_TO_END}

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass plus the untraced counts."""
        assert self.traced is not None
        spans = self.traced["spans"]
        values: dict[str, float] = {}
        for span in SPAN_NAMES:
            record = spans.get(span, {})
            for key in ("calls", "total_s", "self_s"):
                values[f"{span}.{key}"] = record.get(key, 0)
        for metric in per_layer_units():
            values.setdefault(metric, self.median(metric))
        wall = self.median("wall_s")
        values["trace.overhead_frac"] = self.traced["wall_s"] / wall - 1.0 if wall else 0.0
        return values

    def to_json(self) -> dict[str, Any]:
        return {
            "samples": self.samples,
            "summary": {name: summarize(values) for name, values in self.samples.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / self.attempted if self.attempted else 1.0,
            "checks": self.checks,
            "correct": self.correct,
            "digest": self.digests[0] if self.digests else None,
            "per_layer": self.per_layer() if self.traced is not None else None,
        }


def merge_spans(parts: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, record in part.items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in record.items():
                into[key] += value
    return merged


# ---------------------------------------------------------------------- #
# A benchmark run
# ---------------------------------------------------------------------- #


def run_benchmark(
    workloads: list[Workload],
    seed: int,
    *,
    repeats: int | None = None,
    seconds: float | None = None,
    trace: bool = False,
    probes: int = SETUP_PROBES,
    golden: dict[str, Any] | None = None,
    workdir: Path,
) -> tuple[list[WorkloadRun], list[list[str]]]:
    """Measure every workload; returns the runs and the order of each repeat."""
    runs = []
    for workload in workloads:
        path = workdir / workload.name
        path.mkdir()
        runs.append(WorkloadRun(workload, seed, path))
    for run in runs:
        run.prepare()
        for _ in range(probes):
            run.probe_setup()

    spent = {run.workload.name: 0.0 for run in runs}
    last = dict(spent)
    orders: list[list[str]] = []
    while True:
        if repeats is not None and len(orders) >= repeats:
            break
        if seconds is not None and orders and any(
            spent[name] + last[name] > seconds for name in spent
        ):
            break
        shift = len(orders) % len(runs)
        order = runs[shift:] + runs[:shift]
        orders.append([run.workload.name for run in order])
        for run in order:
            last[run.workload.name] = run.run_once()
            spent[run.workload.name] += last[run.workload.name]
    if trace:
        for run in runs:
            run.run_once(trace=True)
    for run in runs:
        run.finish(golden or {})
    return runs, orders


# ---------------------------------------------------------------------- #
# Provenance and reporting
# ---------------------------------------------------------------------- #


def git_state() -> tuple[str, bool | None]:
    """(commit, dirty) of the checkout, or ("unknown", None) outside git."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return "unknown", None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def numpy_version() -> str | None:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def load_average() -> list[float]:
    load = list(os.getloadavg())
    if load[0] > (os.cpu_count() or 1):
        print(
            f"warning: 1-minute load {load[0]:.2f} exceeds nproc={os.cpu_count()}; "
            "timings are contended",
            file=sys.stderr,
        )
    return load


def print_workload(run: WorkloadRun, trace: bool) -> None:
    name = run.workload.name
    timed = len(run.samples.get("wall_s", []))
    units = {**per_layer_units(), **{metric: unit for metric, (unit, _) in END_TO_END.items()}}
    print(f"== {name} (seed {run.seed}; {timed} timed repeat(s)) ==")
    for metric, values in run.samples.items():
        stats = summarize(values)
        print(
            f"  {metric:<52} {stats['median']:>16.6f} {units[metric]:<6} "
            f"Q1 {stats['q1']:.6f}  Q3 {stats['q3']:.6f}  n={stats['n']}"
        )
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_frac':<52} {frac:>16.6f} ratio  ({run.failed}/{run.attempted} runs)")
    if trace and run.traced is not None:
        for metric, value in run.per_layer().items():
            if metric not in run.samples:
                print(f"  {metric:<52} {value:>16.6f} {units[metric]}")
        for span in run.traced["unwrapped"]:
            print(f"  warning: span {span} wraps nothing in this source tree")
    for check, ok in run.checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {check}")
    if run.digests:
        print(f"  digest sha256 {run.digests[0]}")


def result_line(runs: list[WorkloadRun], trace: bool) -> dict[str, Any]:
    """The final JSON line: correctness, run counts and one value per metric."""
    metrics: dict[str, dict[str, Any]] = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run.workload.name}."
        if trace:
            units = per_layer_units()
            values = {name: (value, units[name]) for name, value in run.per_layer().items()}
        else:
            values = {
                name: (value, END_TO_END[name][0]) for name, value in run.end_to_end().items()
            }
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(run.correct for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------- #
# --compare
# ---------------------------------------------------------------------- #


def compare_bounds() -> dict[str, tuple[str, str, float]]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounds = {
        entry["name"]: (entry["unit"], entry["better"], float(entry["bound"]))
        for entry in spec["end_to_end"]
    }
    bounds.update(EXTRA_BOUNDS)
    return bounds


def compare(path_a: str, path_b: str) -> int:
    """Print B against A per workload x metric; exit 1 on any worse or digest mismatch."""
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    same_seed = a["provenance"]["seed"] == b["provenance"]["seed"]
    print(f"A = {path_a} ({a['provenance']['git_sha']})")
    print(f"B = {path_b} ({b['provenance']['git_sha']})")
    print("n is too small for any tail percentile: medians and quartiles only.")
    print("Each row: median [Q1-Q3] n of A and of B, then B's change; positive is worse.")

    def cell(stats: dict[str, float]) -> str:
        return f"{stats['median']:.4f} [{stats['q1']:.4f}-{stats['q3']:.4f}] n={stats['n']}"

    bad = 0
    for name in [workload for workload in a["workloads"] if workload in b["workloads"]]:
        left, right = a["workloads"][name], b["workloads"][name]
        for metric, (unit, better, bound) in compare_bounds().items():
            if metric == "failed_frac":
                before, after = [left["failed_frac"]], [right["failed_frac"]]
            elif metric in left["samples"] and metric in right["samples"]:
                before, after = left["samples"][metric], right["samples"][metric]
            else:
                continue
            outcome, change = verdict(before, after, better, bound)
            bad += outcome == "worse"
            print(
                f"{name:<14} {metric:<22} A {cell(summarize(before)):<40} "
                f"B {cell(summarize(after)):<40} {change:+8.2%} "
                f"(bound {bound:.0%}, {unit}, {better} is better) {outcome}"
            )
        if not same_seed:
            print(f"{name:<14} {'digest':<22} not comparable: seeds differ")
        elif left["digest"] != right["digest"]:
            bad += 1
            print(f"{name:<14} {'digest':<22} MISMATCH {left['digest']} != {right['digest']}")
        else:
            print(f"{name:<14} {'digest':<22} equal")
    return 1 if bad else 0


# ---------------------------------------------------------------------- #
# Command line
# ---------------------------------------------------------------------- #


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro CLI (campaigns and paper experiments)."
    )
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", action="append", default=[],
        metavar="NAME[,NAME...]", help=f"workloads to run (default: all of {', '.join(WORKLOADS)})",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed, passed to repro")
    parser.add_argument("--repeats", type=int, help="timed repeats per workload (default 5)")
    parser.add_argument(
        "--seconds", type=float,
        help="timed work per workload: start repeats while the next one fits (at least one)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add one traced pass per workload and report the per-layer metrics",
    )
    parser.add_argument("--out", help="report file (default: .bench_e2e/results/...)")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two reports instead of running",
    )
    args = parser.parse_args(argv)
    args.workloads = [
        name.strip() for value in args.workloads for name in value.split(",") if name.strip()
    ] or list(WORKLOADS)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeats is None and args.seconds is None:
        args.repeats = DEFAULT_REPEATS
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2

    load_start = load_average()
    started = datetime.datetime.now(datetime.timezone.utc)
    # Fill the bytecode cache once so no timed step pays for compilation.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True, stdout=subprocess.DEVNULL,
    )
    golden = json.loads(GOLDEN_JSON.read_text())
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runs, orders = run_benchmark(
            [WORKLOADS[name] for name in args.workloads],
            args.seed,
            repeats=args.repeats,
            seconds=args.seconds,
            trace=bool(args.trace),
            golden=golden,
            workdir=workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end = load_average()
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if any(harness_rss_mb >= min(run.samples.get("peak_rss_mb", [0.0])) for run in runs):
        print(
            f"warning: harness peak RSS {harness_rss_mb:.1f} MB reaches a child's "
            "peak_rss_mb, which then reads the harness's high-water mark",
            file=sys.stderr,
        )

    sha, dirty = git_state()
    report = {
        "provenance": {
            "git_sha": sha,
            "git_dirty": dirty,
            "python": platform.python_version(),
            "numpy": numpy_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "harness_peak_rss_mb": harness_rss_mb,
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "seed": args.seed,
            "repeats": len(orders),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "workload_order": orders,
            "started_utc": started.isoformat(timespec="seconds"),
        },
        "workloads": {run.workload.name: run.to_json() for run in runs},
    }
    out = Path(args.out) if args.out else (
        WORK / "results" / f"e2e-{started:%Y%m%dT%H%M%SZ}-seed{args.seed}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"repro e2e benchmark: commit {sha}{' (dirty)' if dirty else ''}, "
        f"Python {platform.python_version()}, NumPy {numpy_version()}, "
        f"nproc {os.cpu_count()}, load {load_start[0]:.2f} -> {load_end[0]:.2f}"
    )
    print("n is too small for any tail percentile: medians and quartiles only.")
    for run in runs:
        print_workload(run, bool(args.trace))
    print(f"wrote {out}")
    line = result_line(runs, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
