"""Closed-loop benchmark of the bmgon package: one process, one thread,
one client, each op starting when the previous one returns.

    python3 perfbench/run.py --workload distance_fine --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35     # summary table

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, adjusted to a nominal machine speed with a fixed
reference kernel (see ``reference_kernel``); with ``--trace 1`` every op runs once untraced and
once traced, and the JSON carries the per-layer metrics of the traced
executions.  Inputs come from ``--seed`` alone.  Manifests, reports and
spans are written under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one thread for BLAS and OpenMP, set before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0

# On a shared 2-vCPU cloud guest every kind of work ran up to 2x slower
# or faster for minutes at a time, so raw wall times of runs a few minutes
# apart spread by up to half their median in busy hours, while their
# ratio to the time of reference_kernel spread by a twelfth or less.  The
# declared times are therefore adjusted: raw * REF_NOMINAL_MS / (median
# kernel time), i.e. times on a machine where the kernel takes
# REF_NOMINAL_MS, its typical time on that guest.  The raw values carry a
# _raw suffix in report.json.
REF_NOMINAL_MS = 12.0

# metric name -> unit, reported by the untraced run
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def tail_rank(samples: int) -> int | None:
    """1-based rank of op_ms_tail: the highest percentile that leaves at
    least 10 samples above it, or None below 11 samples."""
    return samples - 10 if samples >= 11 else None


@functools.cache
def _reference_arrays():
    a = np.random.default_rng(0).random((720, 720))
    return a, a.T.copy()


def reference_kernel() -> float:
    """Wall seconds of a fixed piece of work that uses nothing of bmgon:
    a numpy expression over arrays the size of a grid-720 scan, with its
    temporaries, and a loop of small-tuple Python arithmetic, the two
    kinds of work an op does.  Garbage collection is held off, so
    that the number of objects the program keeps alive does not enter
    the time."""
    a, b = _reference_arrays()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = float(np.max(np.abs(a - b)))
        x, y = 0.1, 0.2
        points = []
        for _ in range(15000):
            x, y = x * 0.9 + y * 0.1 + 0.01, abs(y - x) * 0.5 + 0.02
            points.append((x, y))
        acc += max(p[0] for p in points)
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    return caches


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(str(ROOT / ".git" / ref))
        if not commit:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def machine_info() -> dict:
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "cpu_model": model or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> tuple[float, set[str], list[float]]:
    """Median wall time of fresh interpreters that import bmgon and build
    the inputs, the input digests they printed, and reference kernel
    times taken between them."""
    times, digests, refs = [], set(), []
    for _ in range(SETUP_PROBES):
        refs.extend(reference_kernel() for _ in range(3))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(time.perf_counter() - start)
        digests.add(proc.stdout.strip())
    return statistics.median(times), digests, refs


def run_loop(workloads, ops, seconds: float, tracer) -> dict:
    """Runs ops in order, cycling, until ``seconds`` have passed.  With a
    tracer each op runs untraced and traced, in alternating order.  The
    reference kernel runs once before each op; its time is left out of
    ``loop_s``."""
    base_lams: dict[int, float] = {}
    walls: list[float] = []
    refs: list[float] = []
    traced_wall = untraced_wall = 0.0
    traced_ops = failed = 0
    failures: list[str] = []
    executed: list[int] = []

    def execute(op, traced: bool) -> float:
        nonlocal failed
        start = time.perf_counter()
        try:
            if traced:
                with tracer.installed(op.index):
                    output = workloads.run_op(op)
            else:
                output = workloads.run_op(op)
            wall = time.perf_counter() - start
            reason = workloads.check_op(op, output, base_lams)
        except Exception as exc:  # an op that raises is a failed op
            wall = time.perf_counter() - start
            reason = f"{type(exc).__name__}: {exc}"
        walls.append(wall)
        executed.append(op.index)
        if reason is not None:
            failed += 1
            if len(failures) < 20:
                failures.append(f"op {op.index}: {reason}")
        return wall

    t_start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t_start < seconds:
        refs.append(reference_kernel())
        op = ops[i % len(ops)]
        if tracer is None:
            execute(op, False)
        else:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                wall = execute(op, traced)
                if traced:
                    traced_wall += wall
                    traced_ops += 1
                else:
                    untraced_wall += wall
        i += 1
    return {
        "loop_s": time.perf_counter() - t_start - sum(refs),
        "refs": refs,
        "walls": walls,
        "executed": executed,
        "failed": failed,
        "failures": failures,
        "traced_wall": traced_wall,
        "untraced_wall": untraced_wall,
        "traced_ops": traced_ops,
    }


def _shares(ops, executed: list[int]) -> dict[str, float]:
    """Share of attempted ops with each input property."""
    predicates = {
        "grid_720": lambda p: p.get("grid") == 720,
        "linear_image": lambda p: p.get("cond", 1.0) > 1.0,
        "cond_gt_10": lambda p: p.get("cond", 1.0) > 10.0,
        "scaled": lambda p: p.get("log10_scale", 0.0) != 0.0,
        "abs_log10_scale_gt_3": lambda p: abs(p.get("log10_scale", 0.0)) > 3.0,
        "abs_log10_scale_gt_6": lambda p: abs(p.get("log10_scale", 0.0)) > 6.0,
        "random_polygon": lambda p: p.get("source") == "random",
        "m_gt_32": lambda p: p.get("m", 0) > 32,
    }
    total = max(len(executed), 1)
    return {
        name: sum(1 for i in executed if test(ops[i].props)) / total
        for name, test in predicates.items()
    }


def run_workload(args: argparse.Namespace, workloads) -> int:
    import spans

    ops = workloads.build_ops(args.workload, args.seed)
    digest = workloads.inputs_digest(ops)
    setup_s, probe_digests, setup_refs = measure_setup(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    loop = run_loop(workloads, ops, args.seconds, tracer)

    walls = loop["walls"]
    attempted = len(walls)
    failed = loop["failed"]
    inputs_match = probe_digests == {digest}
    correct = failed == 0 and inputs_match
    ordered = sorted(walls)
    rank = tail_rank(attempted)
    setup_speed = REF_NOMINAL_MS / (1e3 * statistics.median(setup_refs))
    ref_ms = 1e3 * statistics.median(loop["refs"])
    speed = REF_NOMINAL_MS / ref_ms  # adjusted time = raw time * speed
    ops_per_s = (attempted - failed) / loop["loop_s"]
    op_ms_p50 = 1e3 * statistics.median(walls)
    op_ms_tail = None if rank is None else 1e3 * ordered[rank - 1]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "inputs_digest": digest,
        "inputs_match_probes": inputs_match,
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": loop["failures"],
        "loop_s": loop["loop_s"],
        "ref_ms": ref_ms,
        "ref_samples": len(loop["refs"]),
        "speed": speed,
        "setup_speed": setup_speed,
        "setup_s": setup_s * setup_speed,
        "ops_per_s": ops_per_s / speed,
        "op_ms_p50": op_ms_p50 * speed,
        "op_ms_tail": None if rank is None else op_ms_tail * speed,
        "setup_s_raw": setup_s,
        "ops_per_s_raw": ops_per_s,
        "op_ms_p50_raw": op_ms_p50,
        "op_ms_tail_raw": op_ms_tail,
        "op_ms_tail_percentile": None if rank is None else 100.0 * rank / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "shares": _shares(ops, loop["executed"]),
        "ops": [[i, round(1e3 * w, 3)] for i, w in zip(loop["executed"], walls)],
    }
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = [{"index": op.index, "kind": op.kind, **op.props} for op in ops]
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")

    if tracer is None:
        metrics = {name: (report[name], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = spans.layer_metrics(
            tracer.spans, loop["traced_ops"], loop["traced_wall"], loop["untraced_wall"]
        )
        report["layers"] = {name: value for name, (value, _) in metrics.items()}
        tracer.write(run_dir / "spans.jsonl.gz")
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    machine = report["machine"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed, inputs {digest[:12]}")
    print(f"machine: {machine['cpu_model']}, nproc {machine['nproc']}, {machine['caches']},"
          f" python {machine['python']}, numpy {machine['numpy']}, commit {machine['git_commit']}")
    print("shares: " + ", ".join(f"{k} {v:.3f}" for k, v in report["shares"].items()))
    if rank is not None:
        print(f"op_ms_tail {report['op_ms_tail']:.4f} ms at p{report['op_ms_tail_percentile']:.2f}"
              f" of {attempted} samples")
    print(f"fail_frac {report['fail_frac']:.6f} ({failed}/{attempted})")
    print(f"reference kernel {ref_ms:.4f} ms median of {report['ref_samples']}, speed {speed:.4f};"
          f" raw setup_s {setup_s:.6g} s, ops_per_s {ops_per_s:.6g} 1/s, op_ms_p50 {op_ms_p50:.6g} ms")
    for failure in loop["failures"][:5]:
        print(f"failure: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"report: {run_dir / 'report.json'}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace, workloads) -> int:
    """Runs every workload in its own process and prints one row each."""
    print(f"{'workload':<14} {'setup_s':>8} {'ops_per_s':>10} {'op_ms_p50':>10} "
          f"{'op_ms_tail':>22} {'fail_frac':>14} {'peak_rss_mb':>11}")
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(f"{workload:<14} failed with exit {proc.returncode}: {proc.stderr.strip()}")
            status = 1
            continue
        run_dir = OUT / f"{workload}-seed{args.seed}-trace{args.trace}"
        r = json.loads((run_dir / "report.json").read_text())
        tail = ("omitted (<11 ops)" if r["op_ms_tail"] is None
                else f"{r['op_ms_tail']:.1f} ms p{r['op_ms_tail_percentile']:.1f}")
        print(f"{workload:<14} {r['setup_s']:>7.3f}s {r['ops_per_s']:>8.3f}/s {r['op_ms_p50']:>8.1f}ms "
              f"{tail:>22} {r['fail_frac']:>6.3f} ({r['failed']}/{r['attempted']}) {r['peak_rss_mb']:>8.1f}MB")
        if args.trace:
            for name, value in r["layers"].items():
                print(f"    {name} {value:.6g}")
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the bmgon package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import bmgon

    if not Path(bmgon.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: bmgon was imported from {bmgon.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        return run_all(args, workloads)
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
