"""Benchmark of equiguide, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid-restore --seed 1 --seconds 30 --trace 0

Runs one workload of ``BENCHMARK.json`` in this process (ring-cli also starts
``equiguide`` CLI processes), checks its outputs, prints one line per check
and per sample hash, and prints the result as one JSON object on the last
line of standard output. ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics. The program is imported from ``src/`` of
the same checkout; without it the benchmark exits with code 2.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# one BLAS/OpenMP thread: the machine is small and shared, and spreads widen
# with more threads; set before numpy is imported, inherited by CLI children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _seconds_since_process_start() -> float:
    """Interpreter start-up before this module ran, from /proc (0 where missing)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


_STARTUP_S = _seconds_since_process_start()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grid-restore", "ring-posterior", "ring-cli")


def _import_program():
    """Import equiguide from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "equiguide" / "__init__.py").is_file():
        print(f"perfbench: no equiguide sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import equiguide

    if not Path(equiguide.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: equiguide imported from {equiguide.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        out_dir: Path | None = None, startup_s: float = 0.0, t0: float | None = None):
    """Run one workload; returns (result dict, Bench)."""
    from workloads import WORKLOADS, Bench

    out = out_dir or HERE / "_out" / f"{workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    b = Bench(seed, seconds, trace, size, out, startup_s,
              time.perf_counter() if t0 is None else t0)
    try:
        WORKLOADS[workload](b)
    finally:
        if out_dir is None:
            shutil.rmtree(out, ignore_errors=True)
    b.finish()
    metrics = {}
    for m in metric_specs(trace):
        if m["name"] not in b.metrics:
            raise KeyError(f"workload {workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": float(b.metrics[m["name"]]), "unit": m["unit"]}
    result = {
        "correct": b.failed == 0 and all(c.ok for c in b.checks),
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": metrics,
    }
    return result, b


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    _import_program()
    try:
        result, b = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        startup_s=_STARTUP_S, t0=_T0)
    except Exception:
        traceback.print_exc()
        return 1
    for c in b.checks:
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
    for name, h in sorted(b.hashes.items()):
        print(f"hash {name} {h}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
