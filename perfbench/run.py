"""Benchmark of the screened-hookium package: four seeded, checked workloads.

    python3 perfbench/run.py --workload {cli,spectrum,verify,density} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is used from src/ as it stands
(not installed).  With --trace 0 the run measures the end-to-end metrics with
no instrumentation: set-up time from fresh benchmark processes, then a closed
loop of operations, one at a time, for S seconds of timed wall time.  With
--trace 1 a separate run repeats one fixed pass over the first inputs of the
stream, untraced and then traced, for at least S seconds and reports the
per-layer metrics.  Every
operation is checked outside the timed region; operations that raise, exit
non-zero or fail the checker are counted in "failed", never dropped.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it holds the details: failures by kind, sample
counts and the machine and library versions.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything can load a BLAS
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import rootcheck
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "screened_hookium"
SETUP_PROBES = 3
STARTUP_PROBES = 5
IMPORT_PROBES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("correct_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Traced-layer time metrics (ms per operation) and exact counts (per pass).
_SELF_MS = tuple(layer for layer, _, _ in tracing.LAYERS)
_COUNTS = ("atom.solve_g.calls", "atom.solve_g.failed", "atom.radial_solution.calls",
           "atom.radial_solution.failed", "heun.series_coefficients.calls",
           "atom.normalize_radial.calls", "oracle.quadrature.calls", "oracle.quad.calls",
           "oracle.quad.neval", "oracle.radial_eigensolve.calls",
           "oracle.radial_eigensolve.grid_points", "oracle.radial_eigensolve.grid_warnings",
           "groundstate.density_numeric.calls")
# Failures of the ledger probe by kind (the probe's own inputs, not operations).
_LEDGER = (("ledger.complex_root", "ComplexRootError"), ("ledger.termination", "TerminationError"),
           ("ledger.wrong_root", "wrong_root"), ("ledger.verify_fail", "verify_FAIL"))
PER_LAYER = (
    (("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.import_scipy_ms", "ms"),
     ("cli.command_ms", "ms"), ("atom.roots_correct_ratio", "ratio"), ("trace.overhead_ms", "ms"))
    + tuple((f"{name}.self_ms", "ms") for name in _SELF_MS)
    + tuple((name, "count") for name in _COUNTS)
    + (("ledger.failed", "count"),) + tuple((name, "count") for name, _ in _LEDGER)
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (q in [0, 1])."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (pos - lo) * (data[hi] - data[lo])


# ---------------------------------------------------------------------------
# running operations

def set_up(wl: workloads.Workload, seed: int):
    """Import, generate the input stream and run one untimed warm-up operation."""
    wl.setup()
    stream = wl.inputs(seed)
    run_one(wl, wl.warmup_input)
    return stream


def run_one(wl, inp, tracer=None, traced=False):
    """One checked operation: (latency in s, failure kind or None, raw output)."""
    start = time.perf_counter()
    try:
        op, ctx = wl.prepare(inp, traced=traced)
    except Exception as exc:
        # A failed preparation counts as a failed operation and as the time it
        # took, so a run whose preparations all fail still ends.
        return time.perf_counter() - start, f"prepare_{type(exc).__name__}", None
    start = time.perf_counter()
    try:
        raw = tracer.run_op(op) if tracer is not None else op()
    except Exception as exc:
        return time.perf_counter() - start, type(exc).__name__, None
    latency = time.perf_counter() - start
    try:
        kind = wl.check(inp, ctx, raw)
    except Exception as exc:  # unreadable output
        kind = f"bad_output_{type(exc).__name__}"
    return latency, kind, raw


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh benchmark process to its first timed operation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=workloads.CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1]) - start


def cli_startup() -> dict:
    """Interpreter start (bare `python -c pass`) and CLI import times, medians in ms."""
    interp = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=child_env(), cwd=ROOT,
                       timeout=workloads.CHILD_TIMEOUT_S)
        interp.append(1e3 * (time.perf_counter() - start))
    imports, scipy = [], []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "screened_hookium.cli",
                               "--version"], capture_output=True, text=True, check=True,
                              env=child_env(), cwd=ROOT, timeout=workloads.CHILD_TIMEOUT_S)
        import_ms, scipy_ms = workloads.parse_importtime(done.stderr)
        imports.append(import_ms)
        scipy.append(scipy_ms)
    return {"cli.interp_ms": statistics.median(interp), "cli.import_ms": statistics.median(imports),
            "cli.import_scipy_ms": statistics.median(scipy)}


# ---------------------------------------------------------------------------
# the two kinds of run

def timed_run(wl, seed: int, seconds: float):
    setups = [probe_setup(wl.name, seed) for _ in range(SETUP_PROBES)]
    stream = set_up(wl, seed)
    records = []
    timed = 0.0
    while timed < seconds:
        latency, kind, _ = run_one(wl, next(stream))
        records.append((latency, kind))
        timed += latency
    ok = [lat for lat, kind in records if kind is None]
    pool = [lat for lat, _ in records]
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ok) / timed,
        "latency_p50_ms": 1e3 * quantile(pool, 0.5),
        "latency_p90_ms": 1e3 * quantile(pool, 0.9),
        "correct_share": len(ok) / len(records),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    detail = {"timed_s": timed, "latency_samples": len(pool),
              "samples_beyond_p90": len(pool) - 1 - int(0.9 * (len(pool) - 1)),
              "setup_samples_s": setups}
    return records, metrics, detail


def traced_run(wl, seed: int, seconds: float):
    startup = cli_startup()
    stream = set_up(wl, seed)
    fixed = [next(stream) for _ in range(wl.pass_size)]
    modules = tracing.package_modules() if wl.in_process else None
    records, passes, spans = [], [], None
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        plain = [run_one(wl, inp) for inp in fixed]
        if modules is not None:
            tracer = tracing.Tracer(modules)
            tracer.install()
            try:
                traced = [run_one(wl, inp, tracer=tracer) for inp in fixed]
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            spans = spans or tracer.dump()
        else:
            traced = [run_one(wl, inp, traced=True) for inp in fixed]
            summary = {"self_ms": {}, "counts": {}, "roots_returned": 0, "roots_exact": 0}
            summary["command_ms"] = [
                1e3 * lat - startup["cli.interp_ms"] - workloads.parse_importtime(raw[2])[0]
                for lat, kind, raw in traced if kind is None]
        summary["overhead_ms"] = 1e3 * (sum(r[0] for r in traced) - sum(r[0] for r in plain)) / len(fixed)
        passes.append(summary)
        records += [(lat, kind) for lat, kind, _ in plain + traced]

    probe = Counter()
    if wl.LEDGER_SIZE:
        ledger_inputs = wl.inputs(workloads.LEDGER_SEED, ledger=True)
        for inp in itertools.islice(ledger_inputs, wl.LEDGER_SIZE):
            kind = run_one(wl, inp)[1]
            probe.update([kind] if kind else [])

    first = passes[0]
    repeat = all(p["counts"] == first["counts"] and p["roots_exact"] == first["roots_exact"]
                 for p in passes)
    metrics = dict(startup)
    commands = [ms for p in passes for ms in p.get("command_ms", [])]
    metrics["cli.command_ms"] = statistics.median(commands) if commands else 0.0
    metrics["atom.roots_correct_ratio"] = (first["roots_exact"] / first["roots_returned"]
                                           if first["roots_returned"] else 0.0)
    metrics["trace.overhead_ms"] = statistics.median(p["overhead_ms"] for p in passes)
    for name in _SELF_MS:
        metrics[f"{name}.self_ms"] = statistics.median(p["self_ms"].get(name, 0.0) for p in passes)
    for name in _COUNTS:
        metrics[name] = first["counts"].get(name, 0)
    metrics["ledger.failed"] = sum(probe.values())
    for name, kind in _LEDGER:
        metrics[name] = probe[kind]
    detail = {"passes": len(passes), "ops_per_pass": len(fixed), "counts_repeat": repeat,
              "roots_returned": first["roots_returned"],
              "ledger_probe": {"inputs": wl.LEDGER_SIZE, "failed": dict(sorted(probe.items())),
                               "unexpected": sorted(set(probe) - set(wl.known_failures))}}
    if spans is not None:
        workloads.RUN_DIR.mkdir(exist_ok=True)
        path = workloads.RUN_DIR / f"spans-{wl.name}-{seed}.json"
        path.write_text(json.dumps({"fields": ["layer", "parent", "op", "start", "end", "failed"],
                                    "spans": spans}))
        detail["spans_file"] = str(path.relative_to(ROOT))
    return records, metrics, detail


# ---------------------------------------------------------------------------
# provenance

def environment() -> dict:
    import numpy

    info = {"commit": _git_commit(), "src_sha256": _source_digest(),
            "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    for dist in ("numpy", "scipy", "click"):
        try:
            info[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            info[dist] = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    info["blas_threads"] = {var: os.environ.get(var) for var in THREAD_VARS}
    return info


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (no search of parent directories)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.make(args.workload, child_env())

    if args.setup_probe:
        stream = set_up(wl, args.seed)
        next(stream)
        print("ready", time.monotonic())
        return 0

    problems = rootcheck.self_test()
    for problem in problems:
        print(f"checker self-test: {problem}", file=sys.stderr)
    if args.trace:
        records, metrics, detail = traced_run(wl, args.seed, args.seconds)
        units = PER_LAYER
    else:
        records, metrics, detail = timed_run(wl, args.seed, args.seconds)
        units = END_TO_END

    failures = Counter(kind for _, kind in records if kind is not None)
    detail.update(workload=wl.name, seed=args.seed, trace=args.trace,
                  failures=dict(sorted(failures.items())), checker_self_test=problems or "passed",
                  env=environment())
    probe_ok = not detail.get("ledger_probe", {}).get("unexpected")
    result = {
        "correct": (not problems and not failures and probe_ok
                    and detail.get("counts_repeat", True)),
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    for name, unit in units:
        print(f"{wl.name:9s} {name:40s} {metrics[name]:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
