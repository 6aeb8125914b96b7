"""rcumem benchmark: end-to-end batch jobs through `rcumem.cli.main`, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout holding `src/rcumem`. Each workload is one closed-loop
batch job in this process and thread: the rcumem command below with the
benchmark seed passed as `--seed`, stdout and stderr captured. The job is
repeated until S seconds of job time are measured (at least three times);
every repeat must produce byte-identical output, and every CSV row or check
line is judged by perfbench/judge.py. An operation is a CSV row (sweeps) or
a check line (oracles); a wrong or non-repeating one counts as failed.

Workloads:
  sweep_reads   simulate --histogram, alpha in {0.5,1,2}, lambda in {5,10}:
                up to 20 reads per publication, so the simulator's event heap
                and per-event histogram dominate; analytics is under 5%.
  sweep_writes  simulate, alpha in {100,1000,3000}, lambda in {1,10}: at most
                0.1 reads per publication and a 100*alpha-publication warmup,
                so the publish path dominates and en_exact's long k-sums take
                about 30%.
  oracles       validate: Monte Carlo (RandomSource gamma_int and poisson),
                quadrature and appendix identities; no simulator.

--trace 0 prints end-to-end metrics: norm_wall_s (median job time at
nominal host speed, see perfbench/hostspeed.py), setup_s (median over five
fresh interpreters, run between jobs, of the time until rcumem.cli is
imported and warm, also at nominal host speed) and peak_rss_mb (ru_maxrss
of this process). --trace 1 spends half the time on untraced jobs and half
on jobs traced by perfbench/tracing.py, and prints the per-layer metrics
from raw wall times. A provenance record, with the raw wall times, precedes
the result, which is the last stdout line.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import judge
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "sweep_reads": {
        "argv": ["simulate", "--alpha", "0.5,1,2", "--lambda", "5,10", "--mu", "1",
                 "--histogram", "--publications", "10000"],
        "grid": [(a, l, 1.0) for a in (0.5, 1.0, 2.0) for l in (5.0, 10.0)],
    },
    "sweep_writes": {
        "argv": ["simulate", "--alpha", "100,1000,3000", "--lambda", "1,10", "--mu", "1",
                 "--publications", "200000"],
        "grid": [(a, l, 1.0) for a in (100.0, 1000.0, 3000.0) for l in (1.0, 10.0)],
    },
    "oracles": {
        "argv": ["validate", "--samples", "200000"],
        "grid": None,
    },
}

SETUP_RUNS = 5
MIN_JOBS = 3
SETUP_TIMEOUT_S = 60
# a run must end within 180 s; stop starting jobs past this, however slow they are
DEADLINE_S = 120


def setup_probe() -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until rcumem.cli is imported and warm.

    Returns (nominal, wall): at nominal host speed, and as measured.
    """
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    ).stdout.split()
    if not Path(out[3]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup probe imported rcumem from {out[3]}, not {SRC}")
    wall = float(out[0]) - start
    return hostspeed.nominal_s(wall - float(out[1]), float(out[2])), wall


def run_job(cli, argv: list[str], timer: hostspeed.HostTimer | None = None) -> tuple[int | None, str, str, float]:
    """One job through cli.main, looked up at call time so tracing patches apply.

    With a timer, the job runs inside it; the returned wall time then
    includes the reference runs.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with timer or contextlib.nullcontext(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as e:  # a crashing job is a set of failed operations, not a crashed benchmark
        print(f"perfbench: job raised {type(e).__name__}: {e}", file=sys.stderr)
        rc = None
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Tally:
    """Counts attempted and failed operations over repeated same-seed jobs."""

    def __init__(self, workload: dict, refs: dict):
        self.grid = workload["grid"]
        self.histogram = "--histogram" in workload["argv"]
        self.refs = refs
        self.first: list[str] | None = None
        self.attempted = 0
        self.failed = 0

    def job(self, rc, stdout: str, stderr: str) -> None:
        if self.grid is None:
            ops = judge.judge_validate(stdout)
            ok_rc = rc in (0, 1)  # 1 is expected: validate's p_ek-vs-series lines fail by design
        else:
            ops = judge.judge_sweep(stdout, stderr, self.grid, self.refs, self.histogram)
            ok_rc = rc == 0
        texts = [t for _, t in ops]
        if self.first is None:
            self.first = texts
        self.attempted += len(ops)
        self.failed += sum(
            1 for (ok, t), t0 in zip(ops, self.first) if not (ok_rc and ok and t == t0)
        )

    def counts(self, first: dict, again: dict) -> None:
        """Exact per-layer counts of a traced job must repeat those of the first one."""
        self.attempted += len(tracing.EXACT)
        self.failed += sum(1 for k in tracing.EXACT if first[k] != again[k])


def repeat(budget: float, job, deadline: float, after_job=lambda progress: None) -> list[float]:
    """Run job() until about `budget` seconds of job time are measured; return the walls.

    At least MIN_JOBS times, for the repeat-run comparison, unless the next
    job is predicted to end after `deadline` (time.monotonic()); at least
    once. after_job gets the share of the budget used so far.
    """
    walls: list[float] = []
    while not walls or (
        (len(walls) < MIN_JOBS or sum(walls) + statistics.median(walls) <= budget)
        and time.monotonic() + statistics.median(walls) <= deadline
    ):
        walls.append(job())
        after_job(sum(walls) / budget)
    return walls


def git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "rcumem").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def flag_value(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "rcumem" / "cli.py").is_file():
        sys.exit(f"perfbench: no rcumem sources under {SRC}")
    workload = WORKLOADS[args.workload]
    argv = workload["argv"] + ["--seed", str(args.seed)]

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import rcumem
    import rcumem.cli

    if not Path(rcumem.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported rcumem from {rcumem.__file__}, not {SRC}")
    judge.check_pin()
    refs = {p: judge.en_shared(*p) for p in workload["grid"] or ()}
    tally = Tally(workload, refs)

    nominal: list[float] = []  # job times at nominal host speed; not kept with --trace 1
    mean_refs: list[float] = []

    def plain_job() -> float:
        timer = None if args.trace else hostspeed.HostTimer()
        rc, out, err, wall = run_job(rcumem.cli, argv, timer)
        tally.job(rc, out, err)
        if timer is not None:
            mean_refs.append(timer.mean_ref())
            nominal.append(hostspeed.nominal_s(timer.wall - timer.spent, mean_refs[-1]))
        return wall

    traced: list[dict] = []

    def traced_job() -> float:
        tracer = tracing.Tracer()
        with tracer.install():
            rc, out, err, wall = run_job(rcumem.cli, argv)
        tally.job(rc, out, err)
        traced.append(tracer.metrics())
        if len(traced) > 1:
            tally.counts(traced[0], traced[-1])
        return wall

    setup: list[tuple[float, float]] = []
    if args.trace:
        walls = repeat(args.seconds / 2, plain_job, deadline)
        traced_walls = repeat(args.seconds / 2, traced_job, deadline)
        layer = tracing.median_metrics(traced)
        layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics = {k: metric(v, tracing.unit(k)) for k, v in layer.items()}
    else:
        # spread the set-up probes over the run, so they see the same host as the jobs
        def probe_due(progress: float) -> None:
            while len(setup) < SETUP_RUNS and progress >= len(setup) / SETUP_RUNS:
                setup.append(setup_probe())

        walls = repeat(args.seconds, plain_job, deadline, probe_due)
        probe_due(1.0)
        traced_walls = []
        metrics = {
            "norm_wall_s": metric(statistics.median(nominal), "s"),
            "setup_s": metric(statistics.median([n for n, _ in setup]), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": ["rcumem"] + argv,
        "sizes": {
            "grid_points": len(workload["grid"]) if workload["grid"] else None,
            "check_lines": None if workload["grid"] else sum(judge.VALIDATE_LINES.values()),
            "publications_per_point": flag_value(argv, "--publications"),
            "samples_per_check": flag_value(argv, "--samples"),
        },
        "jobs": len(walls), "job_walls_s": walls,
        "job_nominal_s": nominal, "job_mean_ref_s": mean_refs,
        "traced_jobs": len(traced_walls), "traced_job_walls_s": traced_walls,
        "setup_nominal_s": [n for n, _ in setup], "setup_walls_s": [w for _, w in setup],
        "host_ref": {"period_s": hostspeed.PERIOD_S, "nominal_s": hostspeed.NOMINAL_REF_S},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rcumem": getattr(rcumem, "__version__", None),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
