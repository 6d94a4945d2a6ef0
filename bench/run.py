"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload hankel --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
invocation is one process, so ``peak_rss_mb`` belongs to that workload alone.
BLAS and OpenMP pools are pinned to one thread before numpy is imported.

Order of a run: set-up (timed, plus two more set-ups in fresh child
processes), one untimed warm-up pass whose reports are the reference, timed
passes until ``--seconds`` would be exceeded, then the untimed correctness
gate.  A fixed calibration kernel runs after each set-up and around each
timed pass; ``wall_s`` and ``setup_s`` are scaled by it to a reference host
speed (see ``CAL_REF_S``).  With ``--trace 0`` every pass is untraced and
the end-to-end metrics are printed.  With ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are printed.  Every pass's reports must be
byte-identical to the warm-up's, so a tracer that changed a result fails the
gate.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_PROBES = 2
SELF_WALL_SLACK = 1.25
# A shared host's speed drifts by up to +-30% over seconds and minutes, which
# moves every timing alike.  Each pass and set-up time is divided by the mean
# of the calibration runs just before and after it and multiplied by
# CAL_REF_S, the kernel's median time on a 2-core x86-64 VM (numpy 2.4, one
# BLAS thread).  So wall_s and setup_s are medians in seconds at that
# reference speed; the raw medians are printed on '#' lines.  Over ten seeds
# per workload there, the run-to-run spread (IQR/median) of wall_s was
# 0.04-0.13 with this scaling against 0.08-0.35 without it; it gains most
# when the host is busiest.
CAL_REF_S = 0.42

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("hankel", "symbols", "harmonic", "scaling"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print it (internal)")
    return ap.parse_args(argv)


def _probe_setup(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _tree(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def calibrate(rounds: int = 60) -> float:
    """Time a fixed kernel that mixes what the layers do: elementwise
    transcendentals, a matrix-vector product, FFTs, sorts and a Python loop.
    It calls no hardylog code, so a change to the program cannot move it.
    It allocates nothing inside the timed loop: allocating its 1 MiB arrays
    ran 25% faster once a pass had raised malloc's mmap threshold."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.standard_normal((512, 256))
    v = rng.standard_normal(256)
    a, b, w = np.empty_like(x), np.empty_like(x), np.empty(512)
    c = np.empty((512, 129), dtype=np.complex128)
    t = time.perf_counter()
    for _ in range(rounds):
        np.exp(np.negative(np.abs(x, out=a), out=a), out=a)
        a *= np.cos(x, out=b)
        a += np.log1p(np.multiply(x, x, out=b), out=b)
        np.dot(a, v, out=w)
        np.fft.rfft(a, axis=1, out=c)
        np.fft.irfft(c, n=256, axis=1, out=b)
        b.sort(axis=1)
        np.cumsum(b, axis=1, out=a)
        acc = 0.0
        for z in w.tolist():
            acc += z * z
    return time.perf_counter() - t


def _median(values):
    return statistics.median(values) if values else 0.0


def _exponent(times: dict) -> float:
    """Least-squares slope of log(time) against log(n)."""
    pts = [(n, t) for n, t in times.items() if t > 0]
    if len(pts) < 2:
        return 0.0
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(t) for _, t in pts]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys)) /
            sum((x - mx) ** 2 for x in xs))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hardylog" / "__init__.py").is_file():
        print(f"bench: no hardylog package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads
    setup, run_pass, gate = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    own_setup = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    calibrate(1)                           # warm the kernel's own code paths
    cals = {"setup": [calibrate()], "passes": []}
    setup_raw = [own_setup]
    for _ in range(SETUP_PROBES):
        setup_raw.append(_probe_setup(args))
        cals["setup"].append(calibrate())
    # the in-process set-up only has the calibration after it
    setup_scaled = [setup_raw[0] / cals["setup"][0]] + [
        t / statistics.fmean(cals["setup"][k - 1:k + 1])
        for k, t in enumerate(setup_raw) if k]

    import numpy
    import scipy
    from tracer import LABELS, TOTALS, Tracer

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    ref, cur, inputs = run_dir / "ref", run_dir / "pass", run_dir / "inputs"
    checks = workloads.Checks()
    tracer = Tracer(callers=[workloads]) if args.trace else None
    rcs_all = []
    identical = True
    walls = {False: [], True: []}          # traced? -> pass walls
    scaled = []                            # untraced walls / calibration
    parts = defaultdict(list)              # untraced sub-part times
    summaries = []                         # per traced pass

    def one_pass(out: Path, traced: bool):
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        first = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        try:
            t = time.perf_counter()
            rcs, sub = run_pass(state, out, inputs)
            wall = time.perf_counter() - t
        finally:
            if traced:
                tracer.uninstall()
        rcs_all.extend(rcs)
        return wall, sub, (tracer.summary(first) if traced else None)

    try:
        one_pass(ref, False)                  # warm-up and reference reports
        reference = _tree(ref)
        modes = (False, True) if args.trace else (False,)
        start = time.perf_counter()
        rounds = 0
        cals["passes"].append(calibrate())
        while True:
            for traced in modes:
                wall, sub, summ = one_pass(cur, traced)
                cals["passes"].append(calibrate())
                identical = identical and _tree(cur) == reference
                walls[traced].append(wall)
                if not traced:
                    scaled.append(wall / statistics.fmean(cals["passes"][-2:]))
                if traced:
                    summaries.append((wall, summ))
                else:
                    for k, v in sub.items():
                        parts[k].extend(v)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks.add("exit_codes", all(rc == 0 for rc in rcs_all),
                   f"{len(rcs_all)} commands, nonzero: "
                   f"{sorted(set(rc for rc in rcs_all if rc != 0))}")
        checks.add("reports_identical", identical,
                   "every pass's reports and files match the warm-up's bytes")
        if args.trace:
            # traced and untraced passes differ by host noise as well as by
            # tracer overhead, so the allowance is the wall_s bound
            self_sum = _median([sum(v["self_s"] for v in s.values())
                                for _, s in summaries])
            ratio = self_sum / _median(walls[False])
            checks.add("trace.self_within_wall", ratio <= SELF_WALL_SLACK,
                       f"median sum(self_s) / untraced median wall = "
                       f"{ratio:.4f}, allowed {SELF_WALL_SLACK}")
        gate(state, ref, inputs, checks)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "threads": {v: os.environ[v] for v in THREAD_VARS},
           "workload": args.workload, "seed": args.seed,
           "calibration_s": {k: [round(c, 4) for c in v]
                             for k, v in cals.items()},
           "setup_samples_s": [round(t, 4) for t in setup_raw],
           "pass_walls_s": {"untraced": [round(w, 4) for w in walls[False]],
                            "traced": [round(w, 4) for w in walls[True]]}}
    print("# env " + json.dumps(env, sort_keys=True))
    for name, status, detail in checks.results:
        print(f"# check {status} {name}: {detail}")
    # attempted and failed count the operations the passes ran: CLI commands
    # and scaling sweeps, failed if they exit nonzero (a raised exception
    # ends the run with no result).  fail_ratio counts gate checks instead,
    # KNOWN misses of documented defects included.
    attempted = len(rcs_all)
    failed = sum(1 for rc in rcs_all if rc != 0)
    fail_ratio = (checks.count(workloads.FAIL, workloads.KNOWN) /
                  len(checks.results))
    sizes = workloads.SCALING_SIZES
    size_walls = {n: _median(parts.get(f"n{n}", [])) for n in sizes}

    metrics = {}
    if not args.trace:
        metrics["wall_s"] = (_median(scaled) * CAL_REF_S, "s")
        metrics["setup_s"] = (_median(setup_scaled) * CAL_REF_S, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        shown = dict(metrics, fail_ratio=(fail_ratio, "1"),
                     raw_wall_s=(_median(walls[False]), "s"),
                     raw_setup_s=(_median(setup_raw), "s"))
        shown.update({f"wall_n{n}_s": (t, "s")
                      for n, t in size_walls.items() if t})
    else:
        for label, fields in LABELS.items():
            for field in ("self_s",) + fields:
                metrics[f"{label}.{field}"] = (
                    _median([s.get(label, {}).get(field, 0.0)
                             for _, s in summaries]),
                    "s" if field == "self_s" else "count")
        for name, (field, labels) in TOTALS.items():
            metrics[name] = (_median([sum(s.get(l, {}).get(field, 0.0)
                                          for l in labels)
                                      for _, s in summaries]), "bytes")
        for n in sizes:
            metrics[f"wall_n{n}_s"] = (size_walls[n], "s")
        for op in workloads.SCALING_OPS:
            per_n = {n: _median(parts.get(f"{op}.n{n}", [])) for n in sizes}
            for n in sizes:
                metrics[f"{op}.n{n}_s"] = (per_n[n], "s")
            metrics[f"{op}.exponent"] = (_exponent(per_n), "1")
        metrics["trace.overhead_s"] = (
            _median(walls[True]) - _median(walls[False]), "s")
        traced_wall = _median([w for w, _ in summaries])
        shown = {f"share.{label}": (metrics[f"{label}.self_s"][0] / traced_wall,
                                    "1") for label in LABELS}
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}.json", env)
    for name, (value, unit) in shown.items():
        print(f"# metric {name} = {value:.6g} {unit}")

    print(json.dumps({
        "correct": checks.count(workloads.FAIL) == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
