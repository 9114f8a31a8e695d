"""Release-pipeline benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload {train,grid,stream} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory. ``--trace 0`` measures the end-to-end metrics with
nothing wrapped. ``--trace 1`` wraps the package's layer boundaries,
traces one set-up and one unit, and reports the per-layer metrics and its
own overhead against an untraced unit. Metrics are printed by name and
unit; the last line of standard output is the result object. The run
exits 1 when an output check fails and 2 when the package cannot be
imported. Results, the environment and (traced) spans are written under
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Allow OpenBLAS at most ``nproc`` threads; must run before numpy loads."""
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 1 <= int(current) <= nproc():
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import handover

    if not Path(handover.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"handover was imported from {handover.__file__}, not from {ROOT / 'src'}")
    return handover


def blas_info() -> dict:
    """BLAS name, version and the thread count the loaded library reports."""
    import ctypes
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    numpy_dir = Path(np.__file__).resolve().parent
    for lib_path in sorted(numpy_dir.parent.glob("numpy.libs/*blas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in BLAS_THREAD_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                info["threads"] = getter()
                return info
    return info


def git_commit() -> str | None:
    """The checkout's commit when it is a git work tree; None otherwise."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args: argparse.Namespace) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "grid", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import workloads

    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.Sizes()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result, tracer = workloads.trace(workload, args.seed, sizes, OUT_DIR)
        tracer.write(OUT_DIR / f"{stem}-spans.tsv")
    else:
        result = workloads.measure(workload, args.seed, args.seconds, sizes, OUT_DIR)
    env["loadavg_end"] = list(os.getloadavg())

    correct = result.failed == 0
    record = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**record, "details": result.details, "environment": env}, indent=1) + "\n",
        encoding="utf-8",
    )
    print("environment " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps(result.details))
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<42} {value:>16.6g} {unit}")
    print(f"checks: {'pass' if correct else 'FAIL'} ({result.failed} of {result.attempted} operations failed)")
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
