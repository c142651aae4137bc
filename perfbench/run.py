"""sdheat benchmark: time to a checked solution, end to end and per layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the workload's passes repeat for S seconds, as
many whole passes as fit (at least one), and the end-to-end metrics
are reported.  With ``--trace 1`` one untraced pass is followed by one
traced pass, and the per-layer metrics of the traced pass are reported.
Every output is checked against its reference after the timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (machine, every solve, the span tree of a traced run) is written to
``perfbench/out/``.  See ``perfbench/BENCHMARK.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # fresh interpreters, besides this process's own set-up
SETUP_TIMEOUT_S = 60


@dataclass
class Result:
    """One execution of one solve."""

    solve: Any  # workloads.Solve
    seconds: float
    output: Any = None
    facts: dict | None = None  # None when the solve raised
    error: str | None = None
    check: Any = None  # workloads.Check, set after the timing

    @property
    def label(self) -> str:
        return self.solve.label

    @property
    def failed(self) -> bool:
        """Raised, or returned an output outside its acceptance gate."""
        return self.error is not None or not self.check.gate_ok

    @property
    def tol_missed(self) -> bool:
        """Raised, or returned an output farther from the reference than ``tol``."""
        return self.error is not None or not self.check.tol_ok


def run_pass(workload, tracer=None) -> list[Result]:
    results = []
    for i, solve in enumerate(workload.prepare()):
        span = tracer.root("solve", solve.label, i) if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                output, facts = solve.run()
            error = None
        except Exception as exc:  # a failing solve is a measured outcome
            output, facts, error = None, None, f"{type(exc).__name__}: {exc}"
        results.append(Result(solve, time.perf_counter() - t0, output, facts, error))
    return results


def check_pass(results: list[Result], tracer=None) -> None:
    for i, res in enumerate(results):
        if res.error is None:
            span = tracer.root("check", res.label, i) if tracer else nullcontext()
            with span:
                res.check = res.solve.check(res.output)
            res.output = None  # release large outputs once checked


def jeffreys(hits: int, n: int) -> float:
    """(hits + 1/2) / (n + 1): a fraction that is never 0 or 1."""
    return (hits + 0.5) / (n + 1)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, read through its own query."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine() -> dict:
    """The machine and library stack, read from /proc, lscpu and Python."""
    import numpy
    import scipy

    def proc_field(path: str, key: str) -> str | None:
        with open(path) as fh:
            for line in fh:
                if line.split(":")[0].strip() == key:
                    return line.split(":", 1)[1].strip()
        return None

    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key = line.split(":")[0].strip()
        if key in ("L2 cache", "L3 cache"):
            caches[key] = line.split(":", 1)[1].strip()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l2_cache": caches.get("L2 cache"),
        "l3_cache": caches.get("L3 cache"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _solve_line(res: Result) -> str:
    if res.error is not None:
        return f"  {res.label}: {res.seconds:.3f} s, raised {res.error[:100]}"
    facts = " ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in res.facts.items())
    chk = res.check
    return (f"  {res.label}: {res.seconds:.3f} s, {facts} distance={chk.distance:.3g} "
            f"gate={'ok' if chk.gate_ok else 'MISSED'} tol={'ok' if chk.tol_ok else 'missed'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sdheat" / "__init__.py").is_file():
        print(f"error: no sdheat sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads  # imports numpy; sdheat comes with the workload

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload](args.seed)
    work.prepare()
    setup = [time.perf_counter() - start] + setup_seconds(args.workload, args.seed)

    from spans import Tracer
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "params": work.params, "machine": machine(),
                    "setup_samples_s": setup}

    if args.trace:
        passes = [run_pass(work)]
        tracer = Tracer()
        with tracer.installed():
            passes.append(run_pass(work, tracer))
            check_pass(passes[1], tracer)
        check_pass(passes[0])
        walls = [sum(r.seconds for r in p) for p in passes]
        values = tracer.layer_metrics(walls[1])
        values["trace.overhead_s"] = walls[1] - walls[0]
        section = "per_layer"
        record["spans"] = tracer.dump()
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(work))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break  # the next pass would end past the measuring time
        for p in passes:
            check_pass(p)
        walls = [sum(r.seconds for r in p) for p in passes]
        n = len(passes[0])
        failed = sum(any(p[i].failed for p in passes) for i in range(n))
        missed = sum(any(p[i].tol_missed for p in passes) for i in range(n))
        values = {
            "wall_s": statistics.median(walls),
            "solve_s_p50": statistics.median(r.seconds for p in passes for r in p),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fail_frac": jeffreys(failed, n),
            "tol_miss_frac": jeffreys(missed, n),
        }
        section = "end_to_end"

    results = [r for p in passes for r in p]
    correct = all(r.error is not None or r.check.gate_ok for r in results)
    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    summary = {"correct": correct, "attempted": len(results),
               "failed": sum(r.failed for r in results), "metrics": metrics}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + json.dumps(record["machine"]))
    print("params: " + json.dumps(work.params))
    print(f"setup samples: {', '.join(f'{s:.3f}' for s in setup)} s")
    for k, p in enumerate(passes):
        kind = ("untraced", "traced")[k] if args.trace else f"pass {k + 1}"
        print(f"{kind}: {walls[k]:.3f} s")
        for res in p:
            print(_solve_line(res))
    if args.workload == "horizon-1d" and args.seed == 0:
        rows = workloads.repro_check([(r.label, r.facts, r.check) for r in passes[0]])
        record["repro_seed0"] = rows
        for row in rows:
            print(f"repro {row['label']}: expected {row['expected']} got {row['got']} "
                  f"{'match' if row['match'] else 'MISMATCH'}")
    if args.trace:
        print("span tree (folded by name path):")
        for line in tracer.tree_lines():
            print("  " + line)
    for name, m in metrics.items():
        shown = f"{m['value']:.6g}" if isinstance(m["value"], float) else m["value"]
        print(f"{name} = {shown} {m['unit']}")

    record["passes"] = [[{"label": r.label, "seconds": r.seconds, "facts": r.facts,
                          "error": r.error,
                          "check": None if r.check is None else vars(r.check)} for r in p]
                        for p in passes]
    record["result"] = summary
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    out.write_text(json.dumps(record, indent=1, default=float))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
