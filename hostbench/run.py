"""Host-time benchmark of the reproduction.

One workload per process::

    python3 hostbench/run.py --workload fig2_cold --seed 0 --seconds 10 --trace 0

Every workload, untraced and then traced, with the tracing overhead::

    python3 hostbench/run.py --all

A run repeats its workload's unit of work until ``--seconds`` have
passed (at least the workload's minimum number of units) and reports
medians.  ``--trace 1`` runs one unit with the layer wrappers of
:mod:`hostbench.tracer` installed, reports the per-layer metrics and
writes the spans to ``hostbench/out/``.  Output: the environment, the
model fingerprint, one line per metric with its unit and, as the last
line, one JSON object.  The exit code is non-zero when an output check
or the fingerprint fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from hostbench.tracer import FIG2, LAYER_METRICS, SERVICE, STEADY  # noqa: E402

WORKLOAD_NAMES = (FIG2, STEADY, SERVICE)

#: BLAS threads per workload, capped at nproc.  Two threads make the
#: cmat build's LAPACK inverses faster (``fig2_cold`` took 55 s instead
#: of 72 s on a 2-core VM); one thread makes nl03c stepping faster.  The
#: thread count changes the physics bits, so it is part of the
#: environment a fingerprint reference belongs to.
BLAS_THREADS = {FIG2: 2, STEADY: 1, SERVICE: 1}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "member_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

REFERENCES = HERE / "references.json"
SPANS_DIR = HERE / "out"

_clock = time.perf_counter


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_unit(workload, seed: int, rec, setup_repeats: int):
    """Time ``setup_repeats`` set-ups (the last is kept) and one run."""
    region = rec.span if rec is not None else (lambda name: nullcontext())
    setups = []
    state = None
    for _ in range(setup_repeats):
        state = None
        with region("bench.setup"):
            t0 = _clock()
            state = workload.setup(seed)
            setups.append(_clock() - t0)
    with region("bench.run"):
        t0 = _clock()
        result = workload.run(state)
        run_s = _clock() - t0
    return setups, run_s, state, result


def bench(args) -> int:
    threads = min(BLAS_THREADS[args.workload], nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = _clock()
    from hostbench import workloads  # imports numpy and the program
    import_s = _clock() - t0

    import numpy
    import repro
    from hostbench.tracer import layer_metrics, traced, write_spans

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": threads,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
    }
    env_key = (f"python{sys.version_info[0]}.{sys.version_info[1]}-numpy{numpy.__version__}"
               f"-blas{threads}-{platform.machine()}")
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    reference = refs.get(args.workload, {}).get(env_key, {}).get(str(args.seed))
    print("env " + json.dumps(env, sort_keys=True))

    workload = workloads.WORKLOADS[args.workload]
    units = []  # (set-up samples, run seconds, outputs)
    problems = []
    fingerprints = set()
    attempted = failed = 0
    rec = None
    min_units = 1 if args.trace else workload.min_units
    start = _clock()
    while attempted < min_units or (not args.trace and _clock() - start < args.seconds):
        attempted += 1
        state = result = None
        try:
            if args.trace:
                with traced() as rec:
                    setups, run_s, state, result = time_unit(workload, args.seed, rec, 1)
            else:
                setups, run_s, state, result = time_unit(
                    workload, args.seed, None, workload.setup_repeats)
            out = workload.outputs(state, result)
        except Exception:  # a failed unit is counted and the run goes on
            traceback.print_exc()
            failed += 1
            problems.append("a unit raised an exception")
            continue
        finally:
            state = result = None
            gc.collect()
        found = list(out.problems)
        if fingerprints and out.fingerprint not in fingerprints:
            found.append("the fingerprint differs between units of one run")
        if reference is not None and out.fingerprint != reference:
            found.append(f"fingerprint {out.fingerprint} != reference {reference}")
        fingerprints.add(out.fingerprint)
        problems += found
        failed += bool(found)
        units.append((setups, run_s, out))

    for fp in sorted(fingerprints):
        verdict = "none for this environment" if reference is None else (
            "match" if fp == reference else "MISMATCH")
        print(f"fingerprint {fp} (reference: {verdict}; env {env_key})")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        units_of = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        values = dict.fromkeys(LAYER_METRICS, 0.0)
        if units:
            values = layer_metrics(rec, units[0][2].read)
            path = write_spans(rec, SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
            print(f"spans {len(rec.spans)} written to {path.relative_to(ROOT)}")
    else:
        units_of = END_TO_END
        values = dict.fromkeys(END_TO_END, 0.0)
        if units:
            values = {
                "wall_s": statistics.median(s[-1] + r for s, r, _ in units),
                "setup_s": import_s + statistics.median(x for s, _, _ in units for x in s),
                "member_steps_per_s": statistics.median(o.member_steps / r for _, r, o in units),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    print(f"{'error_rate':<36} {failed / attempted:>16.6g} ratio  ({failed}/{attempted} units)")
    for name, value in values.items():
        print(f"{name:<36} {value:>16.6g} {units_of[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units_of[n]} for n, v in values.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        last = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or proc.returncode
            if proc.returncode == 0 and lines:
                last[trace] = json.loads(lines[-1])["metrics"]
        if len(last) == 2:
            untraced = last[0]["wall_s"]["value"]
            traced_wall = last[1]["trace.wall_s"]["value"]
            print(f"{name}: tracing overhead {traced_wall - untraced:+.3f} s "
                  f"(traced {traced_wall:.3f} s, untraced {untraced:.3f} s)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
