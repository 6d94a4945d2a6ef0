"""Run one fixed set of hardylog commands on two source trees and diff what
they leave behind.

    python tools/report_diff.py PARENT_TREE CHANGE_TREE

Each tree's ``src/`` goes on PYTHONPATH, and its commands run one after the
other from a fresh temporary directory of its own, always with the same
relative ``--out``, so the paths the commands print match between trees.
The two trees run side by side.  Every file left in the directory, and each
command's stdout, stderr and exit code, is compared; the differences are
printed, and the exit status is 1 when there are any, else 0.

The set: the six suites at n=1024 with y_min 1e-3 and 0.1; all eight norms
of one input named with --function and read with --input, and from
--function again at y_min 1e-3; llog of a saved tall narrow Gaussian, and
llog and hlog of a saved tall narrow odd bump, whose gauges lie below their
maxima; llog of a saved flat row of ones with a power:1.001 tail, whose
gauge is the closed form max|f| * phi(max|f|) (8489.09 in 0 steps); llog of
chi_half, whose phi(max|f|) is exactly 1, the boundary between the closed
form and the search below the max; llog of a saved rapid row that is 0
but for 5e-324 at one node, whose first step M * phi(M) underflows to 0
(the gauge keeps M, with no warning); hlog of a saved modulus and of a saved
flat rapid 1e306, whose holomorphic extensions overflow float64; bmoalog of
exp_ix and logabs and carleson of exp_ix, Cauchy rows of declared terms;
carleson of p1, sgn and logabs and bmoalog of sgn at y_min 0.05, tents of
slices whose ends differ, which a derivative that wrapped the window would
read through a jump at +-L; factorize from --field, --function and
--input, from --field with --function, and from a field it cannot
factorize; bmoalog of the saved symbol factor_b.txt, whose header declares
its terms, and of a saved logabs whose header says log:1,0, the form
written before log took a width; hankel on six symbols, among them q1, the
one whose rows take the 9L line rule with no declared terms, and p1, its
conjugate, the one real decaying symbol, extended through its callable
continuation, which reads the same study seminorm; hankel on exp_ix with
the hankel suite's 50 trials at y_min 0.1 (the study that suite reports),
and on the input file at the default config; the input and config errors;
hankel and bmoalog on a saved exp_ix, whose header declares its term, so
both exit 0 with the reports of --function exp_ix, and norm on a copy of
the input whose header says power:inf; bmo at the default config on one,
sgn, logabs and exp_ix (ties, data that prunes nothing, a jump, a log
singularity, complex windows whose larger counts span several chunks) and
of a saved declared 1e306 constant whose window sums overflow (exit 3);
bmo of a saved row of 1e3 plus seeded 1e-12 noise, whose bounds are
decided by their rounding envelopes, so no window is skipped;
factorize --field inv_sq and bmoalog of sgn at --grid-n 4096, the scaling
benchmark's size, where factorize's fields are one buffer each and the
Cauchy rows of declared terms are added into the rest's rows; and
the six suites at the default config (L=64, n=4096, 48 levels), which take
most of the few minutes a run needs.

A Python warning in stderr names the file and line that raised it; the
tree's path and the line number are masked before the comparison, so code
that only moved does not read as a difference, while a warning that
appears, goes or changes its message still does.
"""

from __future__ import annotations

import difflib
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SMALL = ["--grid-L", "16", "--grid-n", "1024"]
SUITES = ("lemma31", "prop31", "thm21", "thm11", "cr", "hankel")
NORMS = ("l1", "llog", "bmo", "bmoplus", "h1", "hlog", "bmoalog", "carleson")
INPUT = "in/gbump_odd.txt"
SYMBOL_INPUT = "in/exp_ix.txt"
POWER_INF_INPUT = "in/gbump_odd_power_inf.txt"
BUMP_INPUT = "in/tall_bump.txt"
ODD_BUMP_INPUT = "in/tall_odd_bump.txt"
# ones with a slow power tail: phi(max|f|) far above 1, the closed form
FLAT_INPUT = "in/flat_power_tail.txt"
# finite samples whose holomorphic extensions overflow float64
OVERFLOW_INPUTS = ("in/huge_modulus.txt", "in/huge_flat.txt")
# a declared constant whose window sums overflow float64
HUGE_CONSTANT = "in/huge_constant.txt"
# 0 but for one subnormal node: M * phi(M) underflows to 0
SPIKE_INPUT = "in/spike.txt"
# logabs with the two-number log:1,0 of files written before log's width
OLD_LOG_INPUT = "in/logabs_old_log.txt"
# 1e3 plus seeded 1e-12 noise: every BMO bound is decided by its rounding
# envelopes, so the sweep prunes nothing
RIPPLE_INPUT = "in/ripple.txt"
SAVE_INPUT = ("from pathlib import Path\n"
              "import numpy as np\n"
              "from hardylog.grid import (RAPID, SampledFunction, make_grid, "
              "power_decay, save_function)\n"
              "from hardylog.library import (constant, gaussian, "
              "gaussian_deriv, named_function)\n"
              "grid = make_grid(16, 1024)\n"
              f"save_function(named_function('gbump_odd', grid), {INPUT!r})\n"
              f"save_function(named_function('exp_ix', grid), {SYMBOL_INPUT!r})\n"
              "save_function(gaussian(grid, 0.0, 0.05, 10.0), "
              f"{BUMP_INPUT!r})\n"
              "save_function(gaussian_deriv(grid, 0.0, 0.05, 10.0), "
              f"{ODD_BUMP_INPUT!r})\n"
              "save_function(SampledFunction(grid, np.ones(grid.n), "
              f"power_decay(1.001)), {FLAT_INPUT!r})\n"
              "vals = np.zeros(grid.n, dtype=complex)\n"
              "vals[grid.n // 2] = 1.5e308 + 1.5e308j\n"
              "save_function(SampledFunction(grid, vals, RAPID), "
              f"{OVERFLOW_INPUTS[0]!r})\n"
              "save_function(SampledFunction(grid, np.full(grid.n, 1e306), "
              f"RAPID), {OVERFLOW_INPUTS[1]!r})\n"
              f"save_function(constant(grid, 1e306), {HUGE_CONSTANT!r})\n"
              "vals = np.zeros(grid.n)\n"
              "vals[grid.n // 2] = 5e-324\n"
              "save_function(SampledFunction(grid, vals, RAPID), "
              f"{SPIKE_INPUT!r})\n"
              "vals = 1e3 + 1e-12 * np.random.default_rng(0)"
              ".standard_normal(grid.n)\n"
              "save_function(SampledFunction(grid, vals, RAPID), "
              f"{RIPPLE_INPUT!r})\n"
              "save_function(named_function('logabs', grid), "
              f"{OLD_LOG_INPUT!r})\n"
              f"text = Path({OLD_LOG_INPUT!r}).read_text()\n"
              f"Path({OLD_LOG_INPUT!r}).write_text("
              "text.replace('tail=log:1,0,0\\n', 'tail=log:1,0\\n', 1))\n"
              f"text = Path({INPUT!r}).read_text()\n"
              f"Path({POWER_INF_INPUT!r}).write_text("
              "text.replace('decay=rapid', 'decay=power:inf', 1))\n")


# "FILE.py:LINE: SomeWarning: ..." as the warnings module prints it
WARNING_LINE = re.compile(r"^(\S+\.py):\d+: (\w+Warning): ", re.MULTILINE)


def _commands() -> list[tuple[str, list[str], list[str]]]:
    """(name, global options, command and its options) per hardylog run."""
    cmds = []
    for y_min in ("1e-3", "0.1"):
        cmds += [(f"verify_{s}_y{y_min}", SMALL + ["--y-min", y_min],
                  ["verify", "--suite", s]) for s in SUITES]
    for tag, y_min, source in (("function", "0.05", ["--function", "gbump_odd"]),
                               ("input", "0.05", ["--input", INPUT]),
                               ("function_low", "1e-3",
                                ["--function", "gbump_odd"])):
        cmds += [(f"norm_{n}_{tag}", SMALL + ["--y-min", y_min],
                  ["norm", *source, "--norm", n]) for n in NORMS]
    at_005 = SMALL + ["--y-min", "0.05"]
    # tall narrow bumps: their gauges lie below max|f|, in the log regime;
    # the extension behind hlog needs the odd one, whose mean is zero
    cmds.append(("norm_llog_tall_bump", at_005,
                 ["norm", "--input", BUMP_INPUT, "--norm", "llog"]))
    cmds += [(f"norm_{n}_tall_odd_bump", at_005,
              ["norm", "--input", ODD_BUMP_INPUT, "--norm", n])
             for n in ("llog", "hlog")]
    # tail-dominated: phi(max|f|) = 8489, so the gauge is in closed form
    cmds.append(("norm_llog_flat_power_tail", SMALL,
                 ["norm", "--input", FLAT_INPUT, "--norm", "llog"]))
    # phi(max|f|) = 1 exactly: the closed form's boundary
    cmds.append(("norm_llog_chi_half", SMALL,
                 ["norm", "--function", "chi_half", "--norm", "llog"]))
    # the gauge keeps M where its first step underflows
    cmds.append(("norm_llog_spike", SMALL,
                 ["norm", "--input", SPIKE_INPUT, "--norm", "llog"]))
    # one stderr line names the overflow, with no numpy warning
    cmds += [(f"norm_hlog_overflow_{k}", SMALL,
              ["norm", "--input", path, "--norm", "hlog"])
             for k, path in enumerate(OVERFLOW_INPUTS)]
    # the out directory of factorize_field, which run_tree numbers by place
    factor_b = f"out/{len(cmds):02d}_factorize_field/factor_b.txt"
    cmds += [
        ("factorize_field", SMALL, ["factorize", "--field", "inv_sq"]),
        ("factorize_function", at_005,
         ["factorize", "--function", "gbump_odd"]),
        ("factorize_input", at_005, ["factorize", "--input", INPUT]),
        ("factorize_field_and_function", SMALL,
         ["factorize", "--field", "inv_sq", "--function", "gbump_odd"]),
        ("factorize_field_exp_iz", SMALL, ["factorize", "--field", "exp_iz"]),
        # declared terms give exact Cauchy rows through their conjugate terms
        ("norm_bmoalog_exp_ix", at_005,
         ["norm", "--function", "exp_ix", "--norm", "bmoalog"]),
        ("norm_bmoalog_logabs", at_005,
         ["norm", "--function", "logabs", "--norm", "bmoalog"]),
        ("norm_carleson_exp_ix", at_005,
         ["norm", "--function", "exp_ix", "--norm", "carleson"]),
        # the saved symbol reloads with its terms; an old log:a,s header
        # reads as w = 0
        ("norm_bmoalog_factor_b", SMALL,
         ["norm", "--input", factor_b, "--norm", "bmoalog"]),
        ("norm_bmoalog_input_old_log", at_005,
         ["norm", "--input", OLD_LOG_INPUT, "--norm", "bmoalog"]),
    ]
    # tents of slices whose ends differ: no derivative may wrap the window
    cmds += [(f"norm_carleson_{s}", at_005,
              ["norm", "--function", s, "--norm", "carleson"])
             for s in ("p1", "sgn", "logabs")]
    cmds.append(("norm_bmoalog_sgn", at_005,
                 ["norm", "--function", "sgn", "--norm", "bmoalog"]))
    cmds += [(f"hankel_{s}", SMALL + ["--seed", "3"],
              ["hankel", "--function", s, "--trials", "5"])
             for s in ("exp_ix", "sgn", "one", "logabs", "q1", "p1")]
    # the study verify --suite hankel reports, as the command prints it
    cmds.append(("hankel_exp_ix_suite_trials", SMALL + ["--y-min", "0.1"],
                 ["hankel", "--function", "exp_ix", "--trials", "50"]))
    # a file is read on its header's grid, not on the default config's
    cmds.append(("hankel_input_default_config", [],
                 ["hankel", "--input", INPUT, "--trials", "5"]))
    cmds += [
        ("err_unknown_function", SMALL,
         ["norm", "--function", "nope", "--norm", "l1"]),
        ("err_no_source", SMALL, ["norm", "--norm", "l1"]),
        ("err_two_sources", SMALL,
         ["norm", "--function", "gbump_odd", "--input", INPUT, "--norm", "l1"]),
        ("err_missing_file", SMALL,
         ["norm", "--input", "in/missing.txt", "--norm", "l1"]),
        ("err_unknown_field", SMALL, ["factorize", "--field", "nope"]),
        ("err_negative_seed", SMALL + ["--seed", "-1"],
         ["hankel", "--function", "exp_ix"]),
        ("err_infinite_L", ["--grid-L", "inf", "--grid-n", "1024"],
         ["hankel", "--function", "exp_ix"]),
        ("hankel_input_exp_ix", SMALL + ["--seed", "3"],
         ["hankel", "--input", SYMBOL_INPUT, "--trials", "1"]),
        ("norm_bmoalog_input_exp_ix", at_005,
         ["norm", "--input", SYMBOL_INPUT, "--norm", "bmoalog"]),
        ("norm_l1_input_power_inf", SMALL,
         ["norm", "--input", POWER_INF_INPUT, "--norm", "l1"]),
    ]
    # the BMO sweep at the rig size: windows that tie and data that prunes
    # nothing (one), a jump (sgn), a log singularity (logabs), complex
    # windows scored in several chunks per count (exp_ix); and a saved
    # constant whose window sums overflow, which must exit 3
    cmds += [(f"norm_bmo_{s}_default_config", [],
              ["norm", "--function", s, "--norm", "bmo"])
             for s in ("one", "sgn", "logabs", "exp_ix")]
    cmds.append(("norm_bmo_overflow_constant", SMALL,
                 ["norm", "--input", HUGE_CONSTANT, "--norm", "bmo"]))
    cmds.append(("norm_bmo_ripple", SMALL,
                 ["norm", "--input", RIPPLE_INPUT, "--norm", "bmo"]))
    # the scaling benchmark's size: factorize's one-buffer fields, and the
    # Cauchy rows of declared terms added into the rest's rows
    cmds += [("factorize_field_n4096", ["--grid-n", "4096"],
              ["factorize", "--field", "inv_sq"]),
             ("norm_bmoalog_sgn_n4096", ["--grid-n", "4096"],
              ["norm", "--function", "sgn", "--norm", "bmoalog"])]
    cmds += [(f"verify_{s}_rig", [], ["verify", "--suite", s]) for s in SUITES]
    return cmds


def run_tree(tree: Path, work: Path):
    """Write the input file, then run every command of the set on tree from
    work; return (exit code, stdout, stderr) per run name and the bytes of
    every file left in work."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HARDYLOG_")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    (work / "in").mkdir()
    argvs = [("save_input", [sys.executable, "-c", SAVE_INPUT])]
    for index, (name, options, command) in enumerate(_commands()):
        out = ["--out", f"out/{index:02d}_{name}"]
        argvs.append((name, [sys.executable, "-m", "hardylog.cli", *options,
                             *out, *command]))
    runs = {}
    for name, argv in argvs:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True,
                              text=True)
        stderr = WARNING_LINE.sub(r"\1:LINE: \2: ", proc.stderr.replace(
            str(tree / "src"), "SRC"))
        runs[name] = (proc.returncode, proc.stdout, stderr)
    files = {str(p.relative_to(work)): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return runs, files


def _text_diff(a: str, b: str, label: str) -> list[str]:
    lines = list(difflib.unified_diff(a.splitlines(), b.splitlines(),
                                      f"parent/{label}", f"change/{label}",
                                      lineterm="", n=1))
    return lines[:40] + (["  ..."] if len(lines) > 40 else [])


def compare(parent, change) -> list[str]:
    """Human-readable differences between two run_tree results."""
    (runs_a, files_a), (runs_b, files_b) = parent, change
    out = []
    for name, (rc_a, so_a, se_a) in runs_a.items():
        rc_b, so_b, se_b = runs_b[name]
        if rc_a != rc_b:
            out.append(f"{name}: exit code {rc_a} -> {rc_b}")
        for stream, a, b in (("stdout", so_a, so_b), ("stderr", se_a, se_b)):
            if a != b:
                out.append(f"{name}: {stream} differs")
                out += _text_diff(a, b, f"{name}.{stream}")
    for path in sorted(set(files_a) | set(files_b)):
        a, b = files_a.get(path), files_b.get(path)
        if a is None or b is None:
            out.append(f"{path}: only in {'change' if a is None else 'parent'}")
        elif a != b:
            out.append(f"{path}: contents differ")
            out += _text_diff(a.decode(errors="replace"),
                              b.decode(errors="replace"), path)
    return out


def main(argv: list[str]) -> int:
    trees = [Path(a).resolve() for a in argv]
    if len(trees) != 2 or not all((t / "src" / "hardylog").is_dir()
                                  for t in trees):
        print("usage: python tools/report_diff.py PARENT_TREE CHANGE_TREE\n"
              "each tree needs a src/hardylog package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / "parent", Path(tmp) / "change"]
        for w in works:
            w.mkdir()
        with ThreadPoolExecutor(2) as pool:
            parent, change = pool.map(run_tree, trees, works)
    diffs = compare(parent, change)
    for line in diffs:
        print(line)
    runs, files = parent
    verdict = "differences found" if diffs else "no differences"
    print(f"{len(runs)} commands, {len(files)} files: {verdict}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
