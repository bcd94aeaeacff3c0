"""Benchmark of the nfem command-line runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of an nfem checkout.  Each workload run is a fresh
interpreter that calls ``nfem.cli.main`` on a generated config, in a closed
loop: one client, one run at a time, for ``--seconds`` seconds.  Children
run with NFEM_THREADS = nproc and OpenBLAS pinned to one thread, so the
sweep workers are the only compute threads.  Outputs are checked outside
the timed window.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  ``--smoke`` runs every workload at a tiny size in both
modes and checks that every metric named in BENCHMARK.json is emitted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RUNS = ROOT / ".perfbench_runs"

# Every run ends within this many seconds of its start.
RUN_LIMIT_S = 170.0
# Import-only spawns per end-to-end run, pooled with the workload runs for setup_s.
SETUP_PROBES = 5
# Active lattice points sampled for the Morozov flagged share.
MOROZOV_SAMPLE = 256
K = 0.75
NOISE = 0.02
DATA = "data/ball_noisy.nfem"


@dataclass(frozen=True)
class Size:
    n_theta: int
    n_phi: int
    half_box: float
    spacing: float

    @property
    def nodes(self) -> int:
        return self.n_theta * self.n_phi


@dataclass(frozen=True)
class Workload:
    command: str
    size: Size
    # Frozen wall-gap floor of the acceptance suite at k = 0.75; applies only
    # at the reference ball size.
    min_gap: float | None = None


WORKLOADS = {
    # The user's imaging run; the data file is made untimed by `simulate`.
    "ball_image": Workload("reconstruct", Size(12, 24, 3.0, 0.2), min_gap=1.16),
    # Data synthesis and the write side of the NFEM1 I/O; runs no lsm code.
    "fine_simulate": Workload("simulate", Size(18, 36, 3.0, 0.2)),
}

# Workloads that do not image get wall_gap_dec from this untimed small image
# of the same seed, held to the acceptance suite's 0.5-decade floor.
GAP_PROBE = Size(6, 12, 2.2, 0.2)
GAP_PROBE_MIN = 0.5
# Size of every workload and probe in --smoke mode; no gap floor applies.
TINY = Size(6, 12, 2.5, 0.5)


def config_text(size: Size, seed: int) -> str:
    """Reference ball experiment at the given sizes and seed."""
    b = size.half_box
    return f"""\
[forward]
cavity_radius = 1.5
shells = 2.5 1.0 2.0
k = {K}

[measurement]
rho = 1.0
n_theta = {size.n_theta}
n_phi = {size.n_phi}
noise_level = {NOISE}
seed = {seed}

[lsm]
polarization = 0.5773502691896258 -0.5773502691896258 0.5773502691896258
box = {-b} {b} {-b} {b} {-b} {b}
spacing = {size.spacing}
mask_radius = 1.0
alpha_mode = morozov

[output]
prefix = ball
formats = csv,vtk
"""


@dataclass
class Outcome:
    wall: float
    setup: float
    returncode: int | None
    stdout: str
    stderr: str


def median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


class Bench:
    """One benchmark run of one workload: preparation, timed loop, checks."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool, tiny=False):
        self.name = name
        self.workload = WORKLOADS[name]
        self.size = TINY if tiny else self.workload.size
        self.probe_size = TINY if tiny else GAP_PROBE
        self.min_gap = None if tiny else self.workload.min_gap
        self.probe_min = None if tiny else GAP_PROBE_MIN
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = RUNS / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.threads = len(os.sched_getaffinity(0))
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(path),
            "NFEM_THREADS": str(self.threads),
            "OPENBLAS_NUM_THREADS": "1",
        }
        self.problems: list[str] = []
        self.iterations: list[dict] = []
        self.digests: dict[str, str] = {}
        self.gap = math.nan
        self.active_points = None
        self.setup_probes: list[float] = []
        self.missing: list[str] = []
        self._spawned = 0

    @property
    def imaging(self) -> bool:
        return self.workload.command == "reconstruct"

    def spawn(self, cli_args, *options, threads=None) -> Outcome:
        self._spawned += 1
        ready = self.dir / f"ready{self._spawned}.json"
        env = self.env if threads is None else {**self.env, "NFEM_THREADS": str(threads)}
        cmd = [sys.executable, str(CHILD), "--ready", str(ready), *options, "--",
               *cli_args]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.dir, env=env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            return Outcome(time.monotonic() - start, math.nan, None, "", "timed out")
        wall = time.monotonic() - start
        try:
            setup = json.loads(ready.read_text())["ready"] - start
        except (OSError, ValueError, KeyError):
            setup = math.nan
        return Outcome(wall, setup, proc.returncode, proc.stdout, proc.stderr)

    def write_config(self, filename: str, size: Size) -> None:
        (self.dir / filename).write_text(config_text(size, self.seed))

    def exit_problems(self, what: str, outcome: Outcome) -> list[str]:
        if outcome.returncode == 0:
            return []
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return [f"{what}: exit code {outcome.returncode}: {tail[0]}"]

    def data_problems(self, out: str, size: Size) -> list[str]:
        return [
            p
            for clean, file in ((True, "ball_clean.nfem"), (False, "ball_noisy.nfem"))
            for p in checks.check_nearfield(self.dir / out / file, K, size.nodes,
                                            NOISE, clean)
        ]

    def same_as_first(self, key: str, path: Path) -> list[str]:
        """Outputs of one seed must be byte-identical across the runs."""
        value = checks.digest(path)
        if self.digests.setdefault(key, value) != value:
            return [f"{path.name} differs from the first run with the same seed"]
        return []

    def simulate(self, config: str, out: str, size: Size) -> list[str]:
        outcome = self.spawn(["simulate", "--config", config, "--out", out])
        problems = self.exit_problems(f"simulate {config}", outcome)
        return problems or self.data_problems(out, size)

    def image_problems(self, out: str, min_gap) -> tuple[list[str], float, int]:
        out = self.dir / out
        return checks.check_image(out / "ball_imaging.csv", out / "ball_imaging.vtk",
                                  min_gap)

    def prepare(self) -> list[str]:
        """Untimed inputs: the data file to image, or the wall-gap probe."""
        self.write_config("ball.ini", self.size)
        if self.imaging:
            return self.simulate("ball.ini", "data", self.size)
        if self.trace:
            return []
        self.write_config("probe.ini", self.probe_size)
        problems = self.simulate("probe.ini", "probe_data", self.probe_size)
        if problems:
            return problems
        outcome = self.spawn(["reconstruct", "--data", "probe_data/ball_noisy.nfem",
                              "--config", "probe.ini", "--out", "probe_out"])
        problems = self.exit_problems("reconstruct probe.ini", outcome)
        if not problems:
            problems, self.gap, _ = self.image_problems("probe_out", self.probe_min)
        return problems

    def cli_args(self, out: str) -> list[str]:
        if self.imaging:
            return ["reconstruct", "--data", DATA, "--config", "ball.ini", "--out", out]
        return ["simulate", "--config", "ball.ini", "--out", out]

    def output_problems(self, outcome: Outcome, out: str) -> list[str]:
        problems = self.exit_problems(self.workload.command, outcome)
        if problems:
            return problems
        if self.imaging:
            problems, gap, active = self.image_problems(out, self.min_gap)
            self.gap, self.active_points = gap, active
            files = ("ball_imaging.csv", "ball_imaging.vtk")
        else:
            problems = self.data_problems(out, self.size)
            files = ("ball_clean.nfem", "ball_noisy.nfem")
        for file in files:
            problems += self.same_as_first(file, self.dir / out / file)
        return problems

    def iterate(self, kind: str) -> None:
        """One workload run: 'plain' untraced, 'traced', or 'single' (traced
        with one sweep thread)."""
        index = len(self.iterations)
        out = f"out{index}"
        options, threads = [], None
        if kind != "plain":
            options += ["--trace", f"trace{index}.json"]
        if kind == "single":
            # The Morozov sample runs after the CLI returns, so it rides on
            # the run whose wall time no metric uses.
            threads = 1
            options += ["--morozov-sample", str(MOROZOV_SAMPLE), "--seed",
                        str(self.seed), "--config", "ball.ini", "--data", DATA]
        outcome = self.spawn(self.cli_args(out), *options, threads=threads)
        problems = self.output_problems(outcome, out)
        record = {"kind": kind, "wall_s": outcome.wall, "setup_s": outcome.setup,
                  "problems": problems}
        if kind != "plain":
            record["trace"] = self.read_trace(self.dir / f"trace{index}.json")
        self.iterations.append(record)
        self.problems += problems
        shutil.rmtree(self.dir / out, ignore_errors=True)

    def read_trace(self, path: Path) -> dict:
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError):
            self.problems.append(f"{path.name}: traced run wrote no spans")
            return {}
        tree = tracer.SpanTree(raw["spans"])
        absent = tracer.absent_layers(raw["missing"])
        return {
            "metrics": tracer.layer_metrics(tree),
            "top_level_s": tree.top_level(),
            "peak_rss_mb": raw.get("peak_rss_mb", math.nan),
            "morozov": raw.get("morozov"),
            "morozov_error": raw.get("morozov_error"),
            "missing_bindings": raw["missing"],
            "missing_metrics": tracer.missing_metrics(absent),
        }

    def timed_loop(self, required: list[str], repeat: list[str]) -> None:
        """Closed loop for --seconds: the required runs, then more of
        ``repeat`` while the window is open; the run in flight when it
        closes completes.  No run starts that could outlast the run limit."""
        window_end = time.monotonic() + self.seconds
        last = 0.0
        kinds = itertools.chain(required, itertools.cycle(repeat))
        for index, kind in enumerate(kinds):
            now = time.monotonic()
            if index >= len(required) and now >= window_end:
                break
            if now + 1.5 * last > self.deadline:
                break
            self.iterate(kind)
            last = time.monotonic() - now

    def run(self) -> dict:
        problems = self.prepare()
        self.problems += problems
        if problems:
            # The workload cannot run without its inputs: one failed attempt.
            self.iterations.append({"kind": "prepare", "wall_s": math.nan,
                                    "setup_s": math.nan, "problems": problems})
        elif self.trace:
            required = ["plain", "traced"] + (["single"] if self.imaging else [])
            self.timed_loop(required, ["plain", "traced"])
        else:
            self.setup_probes = [
                self.spawn(["--version"], "--setup-only").setup
                for _ in range(SETUP_PROBES)
            ]
            self.timed_loop(["plain"], ["plain"])
        metrics = self.layer_metrics() if self.trace else self.end_to_end()
        result = {
            "correct": not self.problems,
            "attempted": len(self.iterations),
            "failed": sum(bool(it["problems"]) for it in self.iterations),
            "metrics": metrics,
        }
        self.report(result)
        for leftover in ("data", "probe_data", "probe_out"):
            shutil.rmtree(self.dir / leftover, ignore_errors=True)
        return result

    def end_to_end(self) -> dict:
        walls = [it["wall_s"] for it in self.iterations]
        setups = self.setup_probes + [it["setup_s"] for it in self.iterations]
        values = {"wall_s": median(walls), "setup_s": median(setups),
                  "wall_gap_dec": self.gap}
        units = {spec["name"]: spec["unit"] for spec in benchmark_spec()["end_to_end"]}
        return {key: {"value": nan_to_zero(values[key]), "unit": units[key]}
                for key in units}

    def layer_metrics(self) -> dict:
        plain = [it for it in self.iterations if it["kind"] == "plain"]
        traced = [it for it in self.iterations if it["kind"] == "traced"
                  and it.get("trace")]
        single = [it for it in self.iterations if it["kind"] == "single"
                  and it.get("trace")]
        values = {}
        for key in tracer.METRIC_SOURCES:
            values[key] = median([it["trace"]["metrics"][key] for it in traced])
        sweep = values["lsm.run_imaging_s"]
        sweep_1 = median([it["trace"]["metrics"]["lsm.run_imaging_s"] for it in single])
        values["lsm.sweep_speedup"] = sweep_1 / sweep if sweep > 0 else 0.0
        flagged, sampled = next(
            (it["trace"]["morozov"] for it in single if it["trace"]["morozov"]),
            (0, 0))
        values["lsm.morozov_sample_points"] = sampled
        values["lsm.morozov_flagged_frac"] = flagged / sampled if sampled else 0.0
        values["proc.peak_rss_mb"] = median(
            [it["trace"]["peak_rss_mb"] for it in traced])
        plain_wall = median([it["wall_s"] for it in plain])
        traced_wall = median([it["wall_s"] for it in traced])
        values["trace.overhead_s"] = traced_wall - plain_wall
        # Against each traced run's own wall time: a window holds one or two
        # untraced runs, too few for a median that one slow run cannot move.
        values["trace.top_level_coverage"] = median(
            [it["trace"]["top_level_s"] / it["wall_s"] for it in traced])
        missing = {m for it in traced + single for m in it["trace"]["missing_metrics"]}
        if any(it["trace"]["morozov_error"] for it in single):
            missing |= {"lsm.morozov_flagged_frac", "lsm.morozov_sample_points"}
        self.missing = sorted(missing)
        for key in self.missing:
            values[key] = 0.0
        units = {spec["name"]: spec["unit"] for spec in benchmark_spec()["per_layer"]}
        return {key: {"value": nan_to_zero(values[key]), "unit": units[key]}
                for key in units}

    def provenance(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "run_seconds": self.seconds,
            "trace": self.trace,
            "loop": "closed: one client, one run at a time",
            "nproc": self.threads,
            "threads": {k: self.env[k] for k in ("NFEM_THREADS", "OPENBLAS_NUM_THREADS")},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": openblas_version(),
            "commit": git_commit(),
            "inputs": {
                "command": self.workload.command,
                "nodes": self.size.nodes,
                "matrix_bytes": 16 * (2 * self.size.nodes) ** 2,
                "spacing": self.size.spacing if self.imaging else None,
                "active_points": self.active_points,
            },
        }

    def report(self, result: dict) -> None:
        attempted, failed = result["attempted"], result["failed"]
        print(f"workload {self.name}  seed {self.seed}  trace {int(self.trace)}")
        for problem in self.problems[:20]:
            print(f"problem: {problem}")
        for key, metric in result["metrics"].items():
            print(f"{key} = {metric['value']:.6g} {metric['unit']}")
        if not self.trace:
            print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g} "
                  f"(base: {attempted} runs attempted)")
        for key in self.missing:
            print(f"missing: {key} (its traced function no longer exists)")
        provenance = self.provenance()
        print("provenance: " + json.dumps(provenance))
        (self.dir / "result.json").write_text(json.dumps(
            {"provenance": provenance, "result": result, "problems": self.problems,
             "iterations": self.iterations, "setup_probes": self.setup_probes},
            indent=1))


def nan_to_zero(value):
    return 0.0 if isinstance(value, float) and math.isnan(value) else value


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    return out or "unknown"


def smoke() -> int:
    """Every workload at the tiny size, untraced and traced: the metric sets
    match BENCHMARK.json, values are finite, outputs pass, spans keep their
    schema."""
    spec = benchmark_spec()
    expected = {False: {m["name"] for m in spec["end_to_end"]},
                True: {m["name"] for m in spec["per_layer"]}}
    span_keys = {"id", "name", "start", "end", "parent", "thread", "work"}
    failures = []
    for name in WORKLOADS:
        for trace in (False, True):
            bench = Bench(name, seed=1, seconds=1, trace=trace, tiny=True)
            result = bench.run()
            where = f"{name} trace {int(trace)}"
            if set(result["metrics"]) != expected[trace]:
                failures.append(f"{where}: metric set differs from BENCHMARK.json")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                failures.append(f"{where}: non-finite metric value")
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: output checks failed")
            if trace:
                spans = [s for path in bench.dir.glob("trace*.json")
                         for s in json.loads(path.read_text())["spans"]]
                if not spans or any(set(s) != span_keys for s in spans):
                    failures.append(f"{where}: spans missing or schema changed")
    for failure in failures:
        print(f"smoke FAILED: {failure}")
    print("smoke ok" if not failures else "smoke failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, all workloads, check the metric sets")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nfem" / "cli.py").is_file():
        print(f"error: no nfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = Bench(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
