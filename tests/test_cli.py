import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import term_lists
import hardylog
from hardylog import cli, suites
from hardylog import library as lib
from hardylog.cli import (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION,
                          EXIT_RESIDUAL, RunConfig, load_config, main)
from hardylog.grid import (BOUNDED, PreconditionError, RAPID,
                           SampledFunction, make_grid, make_ladder,
                           save_function)

SMALL = ["--grid-L", "16", "--grid-n", "1024"]


def write_named(tmp_path, name, grid=None):
    g = grid or make_grid(16, 1024)
    f = lib.named_function(name, g)
    path = tmp_path / f"{name}.txt"
    save_function(f, path)
    return path


class TestConfig:
    def test_precedence(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("grid_n=512\nseed=1\n# comment\n")
        monkeypatch.setenv("HARDYLOG_SEED", "2")
        cfg = load_config(str(cfgfile), {"HARDYLOG_SEED": "2"},
                          {"seed": 3, "grid_n": None})
        assert cfg.grid_n == 512          # file survives (no override)
        assert cfg.seed == 3              # flag beats env beats file

    def test_bad_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("grid_m=512\n")
        with pytest.raises(Exception):
            load_config(str(cfgfile), {}, {})

    @pytest.mark.parametrize("text, message", [
        ("grid_n=abc\n", "bad value for grid_n: 'abc'"),
        ("grid_n 512\n", "run.cfg:1: expected key=value")],
        ids=["bad_value", "no_equals"])
    def test_malformed_config_is_parse_error(self, tmp_path, capsys, text,
                                             message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        out = tmp_path / "out"
        rc = main(["--config", str(cfgfile), "--out", str(out), "norm",
                   "--function", "chi_half", "--norm", "l1"])
        assert rc == EXIT_PARSE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_hash_ignores_out_dir(self):
        a = RunConfig(out="/tmp/a")
        b = RunConfig(out="/tmp/b")
        assert a.digest() == b.digest()
        assert a.digest() != RunConfig(seed=999, out="/tmp/a").digest()

    @pytest.mark.parametrize("norm", ["l1", "h1"])
    @pytest.mark.parametrize("flags", [["--y-max", "0.5"], ["--levels", "4"],
                                       ["--levels", "-1"],
                                       ["--y-min", "2", "--y-max", "1"],
                                       ["--seed", "-1"], ["--grid-L", "inf"],
                                       ["--grid-L", "1e308"],
                                       ["--y-max", "inf"],
                                       # 2^60: numpy refuses the size
                                       # before it allocates anything
                                       ["--grid-n", str(2 ** 60)],
                                       ["--levels", str(2 ** 60)]],
                             ids=["low_top", "few_levels", "negative_levels",
                                  "inverted", "negative_seed", "infinite_L",
                                  "overflowing_L", "infinite_top",
                                  "unindexable_grid", "unindexable_ladder"])
    def test_bad_ladder_is_parse_error(self, tmp_path, flags, norm):
        # every ladder, grid and seed rule rejects the config up front,
        # whether or not the command would use it
        rc = main(SMALL + flags + ["--out", str(tmp_path), "norm",
                                   "--function", "gbump_odd", "--norm", norm])
        assert rc == EXIT_PARSE
        assert not list(tmp_path.iterdir())

    def test_out_under_a_file_is_output_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        rc = main(SMALL + ["--out", str(tmp_path / "file" / "out"), "norm",
                           "--function", "gbump_odd", "--norm", "l1"])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err.startswith("output error: ")

    def test_env_override_end_to_end(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARDYLOG_GRID_N", "1024")
        monkeypatch.setenv("HARDYLOG_GRID_L", "16")
        rc = main(["--out", str(tmp_path), "norm",
                   "--function", "chi_half", "--norm", "llog"])
        assert rc == EXIT_OK
        rep = json.loads((tmp_path / "norm_llog.json").read_text())
        assert abs(rep["report"]["value"] - 1.0) <= 1e-6


def _choices(command, dest):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if a.dest == dest)


class TestParserAndReports:
    def test_norm_choices(self):
        assert list(_choices("norm", "norm")) == [
            "l1", "llog", "bmo", "bmoplus", "h1", "hlog", "bmoalog",
            "carleson"]

    def test_suite_choices(self):
        assert list(_choices("verify", "suite")) == list(suites.SUITES)

    def test_global_options(self):
        opts = [(a.option_strings, a.dest, a.type)
                for a in cli.build_parser()._actions if a.option_strings]
        assert opts == [(["-h", "--help"], "help", None),
                        (["--config"], "config", None),
                        (["--grid-L"], "grid_l", float),
                        (["--grid-n"], "grid_n", int),
                        (["--y-min"], "y_min", float),
                        (["--y-max"], "y_max", float),
                        (["--levels"], "levels", int),
                        (["--seed"], "seed", int),
                        (["--out"], "out", str)]

    @pytest.mark.parametrize("argv", [
        ["norm", "--function", "gbump_odd", "--norm", "nope"],
        ["verify", "--suite", "nope"],
        ["--grid-n", "many", "verify", "--suite", "cr"],
        ["frobnicate"]], ids=["norm", "suite", "grid_n", "command"])
    def test_parse_errors_return_2(self, tmp_path, argv):
        assert main(["--out", str(tmp_path), *argv]) == EXIT_PARSE
        assert not list(tmp_path.iterdir())

    def test_help_returns_0(self, capsys):
        assert main(["norm", "--help"]) == EXIT_OK
        assert "--function" in capsys.readouterr().out

    def test_write_json_numpy_scalars(self, tmp_path):
        cfg = RunConfig()
        payload = {"f": np.float64(0.1), "i": np.int64(3),
                   "b": np.bool_(True), "t": (1, np.float64(2.5)),
                   "d": {"z": {"y": np.bool_(False)}, "a": [np.int64(-1)]}}
        cli.write_json(tmp_path / "r.json", payload, cfg)
        assert (tmp_path / "r.json").read_text() == (
            '{\n  "b": true,\n'
            f'  "config_hash": "{cfg.digest()}",\n'
            '  "d": {\n    "a": [\n      -1\n    ],\n'
            '    "z": {\n      "y": false\n    }\n  },\n'
            '  "f": 0.1,\n  "i": 3,\n  "t": [\n    1,\n    2.5\n  ],\n'
            f'  "version": "{hardylog.__version__}"\n}}\n')

    @pytest.mark.parametrize("below", [False, True], ids=["half_dx", "below"])
    def test_h1_family_has_szego_gauss_when_resolvable(self, below):
        grid = make_grid(16, 1024)
        y = 0.5 * grid.dx
        if below:
            y = np.nextafter(y, 0.0)
        ladder = make_ladder(y, 1e3, 8)
        assert ladder.levels[0] == y
        names = [name for name, _ in suites._h1_family(grid, ladder)]
        assert ("szego_gauss" in names) == (not below)


class TestNormCommand:
    def test_llog_of_indicator_file(self, tmp_path):
        path = write_named(tmp_path, "chi_half")
        rc = main(SMALL + ["--out", str(tmp_path), "norm",
                           "--input", str(path), "--norm", "llog"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "norm_llog.json").read_text())
        assert abs(report["report"]["value"] - 1.0) <= 1e-6
        assert report["version"] and report["config_hash"]

    def test_zero_input_any_norm(self, tmp_path):
        path = write_named(tmp_path, "zero")
        for norm in ("l1", "llog", "bmo", "bmoplus"):
            rc = main(SMALL + ["--out", str(tmp_path), "norm",
                               "--input", str(path), "--norm", norm])
            assert rc == EXIT_OK
            rep = json.loads((tmp_path / f"norm_{norm}.json").read_text())
            assert rep["report"]["value"] == 0.0

    def test_log_growth_l1_precondition(self, tmp_path):
        path = write_named(tmp_path, "logabs")
        rc = main(SMALL + ["--out", str(tmp_path), "norm",
                           "--input", str(path), "--norm", "l1"])
        assert rc == EXIT_PRECONDITION

    def test_field_norm_from_function(self, tmp_path):
        rc = main(SMALL + ["--y-min", "0.05", "--out", str(tmp_path), "norm",
                           "--function", "gbump_odd", "--norm", "h1"])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("norm", ["h1", "hlog", "carleson", "bmoalog"])
    def test_field_norms_below_half_spacing(self, tmp_path, norm):
        # y_min 1e-3 lies below dx/2 = 1/64: the extension takes any height
        rc = main(SMALL + ["--y-min", "1e-3", "--out", str(tmp_path), "norm",
                           "--function", "gbump_odd", "--norm", norm])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / f"norm_{norm}.json").read_text())
        assert np.isfinite(report["report"]["value"])

    def test_extension_of_nonzero_mean_data_rejected(self, tmp_path):
        # the projection of an indicator keeps a flat component, so its
        # extension is honestly not L1 along heights: precondition, not 0
        rc = main(SMALL + ["--y-min", "0.05", "--out", str(tmp_path), "norm",
                           "--function", "chi_half", "--norm", "h1"])
        assert rc == EXIT_PRECONDITION

    def test_unknown_function(self, tmp_path):
        rc = main(SMALL + ["--out", str(tmp_path), "norm",
                           "--function", "nope", "--norm", "l1"])
        assert rc == EXIT_PARSE

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        for content in (b"garbage\n", b"\xff\xfe binary\n", b"", b" \n\n"):
            bad.write_bytes(content)
            rc = main(SMALL + ["--out", str(tmp_path), "norm",
                               "--input", str(bad), "--norm", "l1"])
            assert rc == EXIT_PARSE

    @pytest.mark.parametrize("row", ["{x!r} abc 0", "{x!r} 1", "{off!r} 1 0"],
                             ids=["non_numeric", "missing_column", "off_grid"])
    def test_malformed_row(self, tmp_path, row):
        path = write_named(tmp_path, "chi_half")
        lines = path.read_text().splitlines()
        x = float(lines[1].split()[0])
        lines[1] = row.format(x=x, off=x + 1e-3)
        path.write_text("\n".join(lines) + "\n")
        rc = main(SMALL + ["--out", str(tmp_path), "norm",
                           "--input", str(path), "--norm", "l1"])
        assert rc == EXIT_PARSE

    def test_named_function_rejects_unknown_name(self):
        # the parser's choices stop unknown names before the library sees
        # them; the library checks them itself for other callers
        with pytest.raises(PreconditionError, match="unknown function 'nope'"):
            lib.named_function("nope", make_grid(16, 1024))

    def test_requires_exactly_one_source(self, tmp_path):
        rc = main(SMALL + ["--out", str(tmp_path), "norm", "--norm", "l1"])
        assert rc == EXIT_PARSE


_MUTATIONS = ("header", "drop_column", "add_column", "token", "off_grid",
              "row_count", "non_utf8", "nonfinite_row", "nonfinite_L")
_BAD_HEADERS = ("", "L=16 n=16 decay=rapid", "# L=16 n=16",
                "# L=16 n=-16 decay=rapid", "# L=16 n=16 decay=bogus",
                "# L=abc n=16 decay=rapid", "# L=16 n=16 decay=power:0.5",
                "# L=0 n=16 decay=rapid", "# L=16 n=12 decay=rapid")


def _mutate(text: str, kind: str, row: int, col: int, token: str,
            nonfinite: str, header: str) -> bytes:
    head, *rows = text.splitlines()
    cells = rows[row].split()
    if kind == "header":
        head = header
    elif kind == "drop_column":
        del cells[col]
    elif kind == "add_column":
        cells.insert(col, "0")
    elif kind == "token":
        cells[col] = token
    elif kind == "off_grid":
        cells[0] = repr(float(cells[0]) + 1e-6)
    elif kind == "row_count":
        rows = rows[:row] + rows[row + 1:] if col else rows + [rows[row]]
    elif kind == "nonfinite_row":
        cells[col] = nonfinite
    elif kind == "nonfinite_L":
        head = re.sub(r"L=\S+", f"L={nonfinite}", head)
    if kind not in ("header", "row_count", "nonfinite_L"):
        rows[row] = " ".join(cells)
    data = "\n".join([head, *rows]).encode() + b"\n"
    if kind == "non_utf8":
        cut = len(data) * row // 16
        data = data[:cut] + b"\xff\xfe" + data[cut:]
    return data


class TestInputFileProperties:
    """Every malformed function file is a parse error, never a traceback."""

    @given(st.sampled_from(_MUTATIONS), st.integers(0, 15), st.integers(0, 2),
           st.text(alphabet="abcxyz,;%", min_size=1, max_size=4),
           st.sampled_from(["nan", "inf", "-inf", "NaN"]),
           st.sampled_from(_BAD_HEADERS))
    def test_mutated_file_is_parse_error(self, kind, row, col, token,
                                         nonfinite, header):
        f = lib.named_function("gbump_odd", make_grid(4, 16))
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "f.txt", Path(tmp) / "out"
            save_function(f, path)
            path.write_bytes(_mutate(path.read_text(), kind, row, col, token,
                                     nonfinite, header))
            rc = main(["--out", str(out), "norm", "--input", str(path),
                       "--norm", "l1"])
            assert rc == EXIT_PARSE
            assert not out.exists()

    @given(st.integers(0, 15), st.sampled_from([1, 2]),
           st.sampled_from(["nan", "inf", "-inf"]))
    def test_nonfinite_value_is_parse_error(self, row, col, token):
        f = lib.named_function("gbump_odd", make_grid(4, 16))
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "f.txt", Path(tmp) / "out"
            save_function(f, path)
            head, *rows = path.read_text().splitlines()
            cells = rows[row].split()
            cells[col] = token
            rows[row] = " ".join(cells)
            path.write_text("\n".join([head, *rows]) + "\n")
            rc = main(["--out", str(out), "norm", "--input", str(path),
                       "--norm", "l1"])
            assert rc == EXIT_PARSE
            assert not out.exists()


    @given(term_lists, st.integers(0, 3),
           st.sampled_from(["kind", "drop", "extra", "number", "empty_term",
                            "empty_tail"]),
           st.sampled_from(["nan", "inf", "-inf", "", "x"]),
           st.sampled_from(["norm", "hankel"]))
    def test_malformed_tail_is_parse_error(self, tail, pick, how, token,
                                           command):
        # an unknown kind, a missing, extra, non-finite or unparsable
        # number, or an empty term anywhere in tail= exits 2, writing nothing
        f = SampledFunction.declared(make_grid(4, 16), tail, BOUNDED)
        texts = [str(t) for t in tail]
        k = pick % len(texts)
        kind, _, nums = texts[k].partition(":")
        nums = nums.split(",")
        if how == "kind":
            kind = "sin"
        elif how == "drop":
            # log:a,s without the width is the older form, read as w = 0
            del nums[-2 if kind == "log" else -1:]
        elif how == "extra":
            nums.append("1")
        elif how == "number":
            nums[pick % len(nums)] = token
        texts[k] = f"{kind}:{','.join(nums)}"
        if how == "empty_term":
            texts.insert(k, "")
        field = "tail=" if how == "empty_tail" else "tail=" + ";".join(texts)
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "f.txt", Path(tmp) / "out"
            save_function(f, path)
            head, body = path.read_text().split("\n", 1)
            head = re.sub(r"tail=\S*", lambda _: field, head)
            path.write_text(head + "\n" + body)
            rc = main(["--out", str(out), command, "--input", str(path),
                       *(["--norm", "l1"] if command == "norm" else
                         ["--trials", "1"])])
            assert rc == EXIT_PARSE
            assert not out.exists()

    def test_log_without_width_loads(self, tmp_path):
        # a header written before log took a width says log:a,s, read as
        # w = 0: the same function and reports as logabs
        path = write_named(tmp_path, "logabs")
        head, body = path.read_text().split("\n", 1)
        assert "tail=log:1,0,0" in head.split()
        path.write_text(head.replace("tail=log:1,0,0", "tail=log:1,0")
                        + "\n" + body)
        reports = []
        for source in (["--input", str(path)], ["--function", "logabs"]):
            out = tmp_path / source[0]
            assert main(SMALL + ["--y-min", "0.05", "--out", str(out), "norm",
                                 *source, "--norm", "bmoalog"]) == EXIT_OK
            reports.append(
                json.loads((out / "norm_bmoalog.json").read_text())["report"])
        assert reports[0] == reports[1]

    def test_overflowing_bmo_is_precondition_error(self, tmp_path):
        # prefix sums of a 1e306 constant overflow; the sweep must not
        # prune the inf scores away and print a finite norm
        g = make_grid(16, 1024)
        path = tmp_path / "big.txt"
        save_function(lib.constant(g, 1e306), path)
        with np.errstate(all="ignore"):
            rc = main(SMALL + ["--out", str(tmp_path / "out"), "norm",
                               "--input", str(path), "--norm", "bmo"])
        assert rc == EXIT_PRECONDITION

    def test_overflowing_modulus_llog_is_precondition_error(self, tmp_path,
                                                            capsys):
        # finite parts, but |f| = inf: the gauge says so before any
        # quadrature, and no bracket error follows
        g = make_grid(16, 1024)
        vals = np.zeros(g.n, dtype=complex)
        vals[g.n // 2] = 1.5e308 + 1.5e308j
        path = tmp_path / "big.txt"
        save_function(SampledFunction(g, vals, RAPID), path)
        rc = main(SMALL + ["--out", str(tmp_path / "out"), "norm",
                           "--input", str(path), "--norm", "llog"])
        assert rc == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "overflows" in err and "bracket" not in err
        assert "Warning" not in err

    @pytest.mark.parametrize("kind", ["modulus", "flat"])
    def test_overflowing_field_path_is_precondition_error(self, tmp_path,
                                                          capsys, kind):
        # the holomorphic extension behind hlog overflows (the flat samples
        # at its far nodes): one stderr line names it, and numpy prints no
        # warning
        g = make_grid(16, 1024)
        if kind == "flat":
            f = SampledFunction(g, np.full(g.n, 1e306), RAPID)
        else:
            vals = np.zeros(g.n, dtype=complex)
            vals[g.n // 2] = 1.5e308 + 1.5e308j
            f = SampledFunction(g, vals, RAPID)
        path = tmp_path / "big.txt"
        save_function(f, path)
        rc = main(SMALL + ["--out", str(tmp_path / "out"), "norm",
                           "--input", str(path), "--norm", "hlog"])
        assert rc == EXIT_PRECONDITION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "overflow" in err[0]

    def test_infinite_power_tail_is_parse_error(self, tmp_path):
        # power:inf would drop the tail mass; the exponent must be finite
        path = write_named(tmp_path, "p1")
        path.write_text(path.read_text().replace("decay=power:2",
                                                 "decay=power:inf", 1))
        out = tmp_path / "out"
        rc = main(SMALL + ["--out", str(out), "norm", "--input", str(path),
                           "--norm", "l1"])
        assert rc == EXIT_PARSE
        assert not out.exists()


class TestFactorizeCommand:
    def test_named_field(self, tmp_path):
        rc = main(SMALL + ["--out", str(tmp_path), "factorize",
                           "--field", "inv_sq"])
        assert rc == EXIT_OK
        rep = json.loads((tmp_path / "factorization.json").read_text())
        assert rep["residual"] <= 1e-10
        assert rep["b_min"] >= 1.0 and rep["g0_abs_min"] >= 1.0
        for stem in ("factor_f0", "factor_g0", "factor_b"):
            assert (tmp_path / f"{stem}.txt").exists()

    def test_new_output_directory(self, tmp_path):
        out = tmp_path / "new" / "dir"
        rc = main(SMALL + ["--out", str(out), "factorize", "--field", "inv_sq"])
        assert rc == EXIT_OK
        for name in ("factor_f0.txt", "factor_g0.txt", "factor_b.txt",
                     "factorization.json"):
            assert (out / name).exists()

    def test_output_modes_follow_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            rc = main(SMALL + ["--out", str(tmp_path), "factorize",
                               "--field", "inv_sq"])
        finally:
            os.umask(old)
        assert rc == EXIT_OK
        for name in ("factor_f0.txt", "factorization.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644

    def test_residual_above_tolerance_exits_4(self, tmp_path, monkeypatch,
                                              capsys):
        factorize = cli.factorize
        monkeypatch.setattr(cli, "factorize",
                            lambda h: replace(factorize(h), residual=1e-9))
        rc = main(SMALL + ["--out", str(tmp_path), "factorize",
                           "--field", "inv_sq"])
        assert rc == EXIT_RESIDUAL
        assert "residual above 1e-10" in capsys.readouterr().err
        rep = json.loads((tmp_path / "factorization.json").read_text())
        assert rep["residual"] == 1e-9

    def test_unknown_field(self, tmp_path):
        rc = main(SMALL + ["--out", str(tmp_path), "factorize",
                           "--field", "nope"])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("field", ["exp_iz", "blaschke", "constant"])
    def test_unfactorizable_field(self, tmp_path, field):
        # coifman_rochberg_symbol needs an integrable field: only inv_sq is
        rc = main(SMALL + ["--out", str(tmp_path), "factorize",
                           "--field", field])
        assert rc == EXIT_PARSE
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("other", ["function", "input"])
    def test_field_with_another_source(self, tmp_path, other):
        path = write_named(tmp_path, "gbump_odd")
        source = {"function": "gbump_odd", "input": str(path)}[other]
        out = tmp_path / "out"
        rc = main(SMALL + ["--out", str(out), "factorize", "--field",
                           "inv_sq", f"--{other}", source])
        assert rc == EXIT_PARSE
        assert not out.exists()

    def test_saved_symbol_reloads(self, tmp_path, capsys):
        # factor_b.txt declares the symbol's terms, so its Cauchy rows need
        # no continuation: 2.01838893528 at L=16, n=1024, y_min 0.05
        flags = SMALL + ["--y-min", "0.05"]
        assert main(flags + ["--out", str(tmp_path), "factorize",
                             "--field", "inv_sq"]) == EXIT_OK
        path = tmp_path / "factor_b.txt"
        assert f"tail=log:1,0,{np.e:.17g};const:1,0" in \
            path.read_text().split("\n")[0].split()
        capsys.readouterr()
        assert main(flags + ["--out", str(tmp_path / "norm"), "norm",
                             "--input", str(path), "--norm", "bmoalog"]) \
            == EXIT_OK
        assert capsys.readouterr().out.startswith("bmoalog: 2.01838893528 ")

    def test_boundary_function_input(self, tmp_path):
        # boundary data route: project, extend, then factorize
        rc = main(SMALL + ["--y-min", "0.05", "--out", str(tmp_path),
                           "factorize", "--function", "gbump_odd"])
        assert rc == EXIT_OK
        rep = json.loads((tmp_path / "factorization.json").read_text())
        assert rep["residual"] <= 1e-10


class TestVerifyCommand:
    def test_cr_suite(self, tmp_path):
        rc = main(SMALL + ["--out", str(tmp_path), "verify", "--suite", "cr"])
        assert rc == EXIT_OK
        lines = (tmp_path / "verify_cr.csv").read_text().splitlines()
        assert lines[0] == "case,lhs,rhs,ratio"
        assert len(lines) > 3
        rep = json.loads((tmp_path / "verify_cr.json").read_text())
        assert rep["pass"] is True

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(SMALL + ["--out", str(out), "verify", "--suite", "cr"])
            assert rc == EXIT_OK
        assert (out1 / "verify_cr.csv").read_bytes() == \
            (out2 / "verify_cr.csv").read_bytes()
        assert (out1 / "verify_cr.json").read_bytes() == \
            (out2 / "verify_cr.json").read_bytes()

    def test_thm11_runs_szego_cases_on_a_resolvable_ladder(self):
        # a ladder from dx/2 up resolves the projected Gaussian, so the
        # suite adds cauchy_bump and szego_gauss to its two closed forms
        rows, summary = suites.suite_thm11(
            RunConfig(grid_l=16, grid_n=256, y_min=0.1))
        assert summary["pass"] is True
        assert [r[0] for r in rows] == [
            f"{name}:{kind}" for kind in ("residual", "l1_doubling")
            for name in ("inv_sq", "cauchy_pair", "cauchy_bump",
                         "szego_gauss")]


class TestHankelCommand:
    def test_study_runs(self, tmp_path):
        rc = main(SMALL + ["--seed", "3", "--out", str(tmp_path), "hankel",
                           "--function", "exp_ix", "--trials", "2"])
        assert rc == EXIT_OK
        rep = json.loads((tmp_path / "hankel_study.json").read_text())
        assert rep["trials"] == 2
        assert rep["degenerate"] is False

    def test_input_on_its_own_grid(self, tmp_path):
        # the file's header grid wins over the config grid, as for norm
        path = write_named(tmp_path, "gbump_odd")
        reports = []
        for flags in ([], SMALL):
            out = tmp_path / f"out{len(flags)}"
            rc = main(flags + ["--seed", "3", "--out", str(out), "hankel",
                               "--input", str(path), "--trials", "3"])
            assert rc == EXIT_OK
            reports.append(json.loads((out / "hankel_study.json").read_text()))
        default, small = reports
        assert default["seminorm"] == small["seminorm"]
        assert default["rows"] == small["rows"]

    def test_saved_symbol_extends_like_the_named_one(self, tmp_path, capsys):
        # the header keeps the bound and the declared term, so the file
        # gives the --function reports: hankel on its Poisson rows, bmoalog
        # on its Cauchy rows
        path = write_named(tmp_path, "exp_ix")
        head = path.read_text().split("\n")[0].split()
        assert "decay=log_growth:bounded" in head
        assert [f for f in head if f.startswith("tail=")] == \
            [f"tail=exp:1,0,{lib.harmonic_freq(make_grid(16, 1024), 1.0):.17g}"]
        reports = {}
        for source in (["--input", str(path)], ["--function", "exp_ix"]):
            out = tmp_path / source[0]
            assert main(SMALL + ["--seed", "3", "--out", str(out), "hankel",
                                 *source, "--trials", "3"]) == EXIT_OK
            assert main(SMALL + ["--y-min", "0.05", "--out", str(out),
                                 "norm", *source, "--norm", "bmoalog"]) \
                == EXIT_OK
            study = json.loads((out / "hankel_study.json").read_text())
            norm = json.loads((out / "norm_bmoalog.json").read_text())
            reports[source[0]] = (study["seminorm"], study["rows"],
                                  norm["report"])
        assert reports["--input"] == reports["--function"]

    def test_unbounded_symbol_rejected_before_drawing(self, tmp_path,
                                                      monkeypatch):
        drawn = []
        monkeypatch.setattr(cli, "trial_pairs",
                            lambda *a: drawn.append(a) or [])
        rc = main(SMALL + ["--out", str(tmp_path), "hankel",
                           "--function", "logabs"])
        assert rc == EXIT_PRECONDITION
        assert drawn == []


class TestImportCost:
    def test_cli_import_skips_scipy_signal(self):
        # scipy.signal pulls in stats, optimize, sparse and spatial
        src = os.path.dirname(os.path.dirname(hardylog.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, hardylog.cli; "
                "print('scipy.signal' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("module", ["hardylog.cli", "hardylog.oracles"])
    def test_import_loads_no_scipy(self, module):
        # the runtime needs NumPy alone; SciPy's import was most of the
        # start-up of a one-shot command
        src = os.path.dirname(os.path.dirname(hardylog.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
