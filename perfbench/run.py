#!/usr/bin/env python3
"""Layered benchmark for tasd.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``tasd`` from
``src/`` there and from nowhere else. Workload names, metric names, units
and bounds are declared in ``BENCHMARK.json`` at the same root.

``--trace 0`` measures the end-to-end metrics with no instrumentation:
the median of several set-ups (import, inputs, files on disk, one warm-up
job), each followed by jobs, until ``--seconds`` of job time has passed. ``--trace 1``
traces one set-up, then alternates untraced jobs and jobs run under the
tracer for ``--seconds``, and reports the per-layer metrics as the median
over traced jobs. Every job's output is checked after its clock stops;
a job that exits non-zero or fails its check counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it list every
metric with its unit, the environment, and the backend kernel timings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
# output digests of the CLI workloads on one seed, recorded when the
# benchmark was written; the outputs must never change silently
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUPS = 3  # set-ups per --trace 0 run; setup_s is their median
DEFAULT_SEED = 0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def pin_threads() -> None:
    """At most two sweep workers, and single-threaded BLAS, which only the
    output checks and a few norms use; must run before numpy loads."""
    os.environ["TASD_THREADS"] = str(min(2, nproc()))
    for var in BLAS_VARS:
        os.environ[var] = "1"


@contextlib.contextmanager
def env_var(name: str, value: str):
    saved = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if saved is None:
            del os.environ[name]
        else:
            os.environ[name] = saved


def import_program():
    src = ROOT / "src"
    if not (src / "tasd" / "__init__.py").is_file():
        raise RuntimeError(f"no tasd sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import tasd

    if Path(tasd.__file__).resolve().parent != (src / "tasd").resolve():
        raise RuntimeError(f"imported tasd from {tasd.__file__}, not from {src}")
    return tasd


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(tasd, numpy) -> dict:
    from tasd._parallel import resolve_workers

    return {
        "backend": tasd.active_backend(),
        "has_numba": tasd.HAS_NUMBA,
        "tasd_threads": resolve_workers(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": nproc(),
        "git_sha": git_sha(),
    }


def backend_kernels(tasd, seed: int) -> dict:
    """Median kernel-level timings for each backend that imports."""
    a = tasd.random_matrix(256, 256, 0.9, "normal", seed=(seed, 9, 0))
    b = tasd.random_matrix(256, 64, 1.0, "uniform", seed=(seed, 9, 1))
    cfg = "4:8+2:8"

    def median_ms(fn, repeats=5):
        fn()  # warm caches, and the JIT on the compiled side
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    out = {}
    for backend in ("numpy", "numba"):
        if backend == "numba" and not tasd.HAS_NUMBA:
            out[backend] = "skipped: numba is not importable"
            continue
        with env_var("TASD_BACKEND", backend):
            d = tasd.decompose(a, cfg)
            out[backend] = {
                f"decompose_256x256_{cfg}_ms": median_ms(lambda: tasd.decompose(a, cfg)),
                "matmul_256x256x64_ms": median_ms(lambda: tasd.matmul(a, b)),
                f"tasd_matmul_256x256x64_{cfg}_ms": median_ms(lambda: tasd.tasd_matmul(d, b)),
            }
    return out


class Outputs:
    """Counts jobs and failures; every job's digest must equal the first
    passing job's, and on the recorded seed the digest recorded for it."""

    def __init__(self, expected: str | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def check(self, workload, job, label: str) -> None:
        digest = workload.check(job)
        if self.expected is None:
            if not job.problems:
                self.expected = digest
        elif digest != self.expected:
            job.problems.append(f"output digest {digest[:16]}, expected {self.expected[:16]}")
        self.digest = self.digest or digest
        self.attempted += 1
        if job.problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in job.problems[:3]]


def run_jobs(workload, state, budget: float, outputs: Outputs, label: str):
    """Jobs until their summed wall time reaches ``budget`` (at least one)."""
    jobs, spent = [], 0.0
    while not jobs or spent < budget:
        job = workload.job(state)
        spent += job.seconds
        outputs.check(workload, job, label)
        jobs.append(job)
    return jobs


def end_to_end(args, wl, work: Path, outputs: Outputs, import_s: float):
    # set-ups alternate with blocks of jobs, so that both sample the same
    # stretch of the host's (drifting) speed
    setups, jobs = [], []
    for i in range(SETUPS):
        start = time.perf_counter()
        state = wl.prepare(work / f"setup{i}")
        prepare_s = time.perf_counter() - start
        job = wl.job(state)
        outputs.check(wl, job, f"set-up {i}")
        setups.append(prepare_s + job.seconds)
        jobs += run_jobs(wl, state, args.seconds / SETUPS, outputs, "job")
    with env_var("TASD_THREADS", "1"):
        outputs.check(wl, wl.job(state), "TASD_THREADS=1 job")

    job_s = statistics.median(job.seconds for job in jobs)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "job_s": job_s,
        # every job does the same work; the median job is steadier than a total
        "items_per_s": jobs[0].items / job_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "failed_frac": (outputs.failed / outputs.attempted, "ratio"),
        "jobs": (len(jobs), "count"),
        "items_per_job": (jobs[0].items, "count"),
        "setups": (SETUPS, "count"),
    }
    return metrics, extra


@contextlib.contextmanager
def tracing():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def traced_setup(wl, work: Path):
    """Prepare the inputs under the tracer; returns the state, the set-up
    metrics, and the functions the tracer could not find."""
    import layers

    with tracing() as tracer:
        state = tracer.run("setup", wl.prepare, (work / "traced",))
    return state, layers.setup_metrics(tracer.take()), tracer.missing


def traced_job(wl, state):
    """One job under the tracer; returns it with its per-layer metrics."""
    import layers
    import workloads

    with tracing() as tracer:
        job = tracer.run("job", wl.job, (state,))
    return job, layers.job_metrics(tracer.take(), workloads.CAL_SAMPLES)


def per_layer(args, wl, work: Path, outputs: Outputs, tasd):
    state, setup, missing = traced_setup(wl, work)
    if missing:
        outputs.problems.append(f"not traced: {', '.join(missing)}")
    outputs.check(wl, wl.job(state), "warm-up")
    with env_var("TASD_THREADS", "1"):
        single = wl.job(state)
    outputs.check(wl, single, "TASD_THREADS=1 job")

    # untraced and traced jobs alternate, so a drift of the host's speed
    # during the run does not show up as tracing overhead
    untraced, traced, per_job = [], [], []
    while not traced or sum(j.seconds for j in untraced + traced) < args.seconds:
        job = wl.job(state)
        outputs.check(wl, job, "untraced job")
        untraced.append(job)
        job, metrics = traced_job(wl, state)
        outputs.check(wl, job, "traced job")
        traced.append(job)
        per_job.append(metrics)

    untraced_s = statistics.median(job.seconds for job in untraced)
    # median_low keeps counts whole: they are equal across jobs
    metrics = {key: statistics.median_low(m[key] for m in per_job) for key in per_job[0]}
    metrics.update(setup)
    metrics["parallel.speedup_vs_1"] = single.seconds / untraced_s
    metrics["trace.overhead_frac"] = (
        statistics.median(job.seconds for job in traced) / untraced_s - 1.0
    )
    extra = {
        "untraced_jobs": (len(untraced), "count"),
        "traced_jobs": (len(traced), "count"),
        "failed_frac": (outputs.failed / outputs.attempted, "ratio"),
    }
    return metrics, extra, {"backend_kernels": backend_kernels(tasd, args.seed)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Layered benchmark for tasd.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {SPEC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    pin_threads()
    import numpy

    try:
        tasd = import_program()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    import workloads

    recorded = json.loads(DIGESTS.read_text())
    expected = None
    if args.seed == recorded["seed"]:
        expected = recorded["digests"].get(args.workload)
    outputs = Outputs(expected)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    env = environment(tasd, numpy)
    try:
        if args.trace:
            metrics, extra, notes = per_layer(args, wl, work, outputs, tasd)
            env.update(notes)
            declared = spec["per_layer"]
        else:
            metrics, extra = end_to_end(args, wl, work, outputs, import_s)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} are declared "
              "but not measured, or measured but not declared", file=sys.stderr)
        return 3
    for name in units:
        print(f"metric {name} = {metrics[name]!r} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"metric {name} = {value!r} {unit}")
    for problem in outputs.problems:
        print(f"problem {problem}")
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, digest=outputs.digest)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": outputs.failed == 0,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
