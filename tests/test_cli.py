import codecs
import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from chbs import scheme, spaces, verify
from chbs.cli import (_KEYS, RunSpec, _rows_csv, _snapshot_csv, build_forcing, load_config,
                      main, parse_config)
from chbs.domain import build_unit_square
from chbs.errors import ConfigError, NumericalError
from chbs.scheme import MonitorRecord, SchemeState
from chbs.spaces import FieldPair

QUICK_RUN = """
[mesh]
n = 5
[scheme]
eps = 0.1
tau = 1e-3
t_end = 0.004
[graphs]
bulk = polynomial
boundary = polynomial
[init]
preset = random
mean = 0.0
amplitude = 0.1
seed = 12
[output]
stride = 2
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _child_env():
    """The environment of a child interpreter that imports this checkout's chbs."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


# --- parsing -----------------------------------------------------------------

def test_empty_config_uses_documented_defaults():
    spec = parse_config("")
    assert spec.mesh_n == 9
    assert spec.eps == 0.1
    assert spec.init_preset == "constant"


def test_minimal_config_roundtrip():
    spec = parse_config(QUICK_RUN)
    assert spec.mesh_n == 5
    assert spec.tau == 1e-3
    assert spec.seed == 12
    assert spec.stride == 2


def test_eps_zero_rejected_with_named_constraint():
    with pytest.raises(ConfigError, match=r"eps must lie in \(0,1\]"):
        parse_config("[scheme]\neps = 0\n")


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="epsilonn"):
        parse_config("[scheme]\nepsilonn = 0.1\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"\[solver\]"):
        parse_config("[solver]\ntol = 1\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[mesh]\nn = 5\nnot a key value pair\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[mesh]\nn = 5\nn = 7\n")


def test_random_preset_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("[init]\npreset = random\n")


def test_negative_seed_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[mesh]\nn = 5\n[init]\npreset = random\nseed = -1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, raw, message", [
    ("mesh", "n", "2", "must be at least 3"),
    ("scheme", "eps_list", "0.5,2", "entries must lie in (0,1]"),
    ("init", "amplitude", "-1", "must be nonnegative"),
    ("init", "seed", "-1", "must be nonnegative"),
    ("output", "stride", "0", "must be at least 1"),
], ids=["n", "eps_list", "amplitude", "seed", "stride"])
def test_out_of_bound_value_exits_2_naming_key_and_line(tmp_path, capsys, section, key,
                                                       raw, message):
    cfg = write_config(tmp_path, f"# one key out of bounds\n[{section}]\n{key} = {raw}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: line 3: {key} {message}, got {raw!r}\n"


def test_utf8_bom_config_parses_as_without_it(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(codecs.BOM_UTF8 + QUICK_RUN.lstrip().encode())
    assert load_config(str(path)) == parse_config(QUICK_RUN)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("n = 5\n")


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_config(block) == RunSpec()
    shown, section = set(), None
    for line in block.splitlines():
        match = re.fullmatch(r"\[(\w+)\]|#? ?(\w+) = .*", line)
        if match and match.group(1):
            section = match.group(1)
        elif match:
            shown.add((section, match.group(2)))
    assert shown == set(_KEYS)


# --- csv output ------------------------------------------------------------------

def _per_cell_rows_csv(columns, rows):
    """Reference writer: each cell formatted in Python before csv.writer."""
    def fmt(value):
        if type(value) is float:
            return repr(value)
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows([fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def test_rows_csv_matches_per_cell_writer():
    inf = float("inf")
    rows = [(0, float("nan"), inf, -inf),
            (1, -0.0, 5e-324, -5e-324),
            (2, 0.1, 1e16, 1.7976931348623157e308),
            (np.int64(3), np.float64(0.1), np.float64(-0.0), np.float64(1e-5)),
            (np.int32(-4), np.float64("nan"), np.float64(-inf), 2 ** 70),
            ("sampled coercivity inequality", True, False,
             "worst slack = 0.21, c_p = 0.78")]
    # the report call sites pass flags as int(flag)
    converted = [tuple(int(v) if isinstance(v, bool) else v for v in row) for row in rows]
    columns = ["item", "a", "b", "c"]
    text = _rows_csv(columns, converted)
    assert text == _per_cell_rows_csv(columns, rows)
    assert '"worst slack = 0.21, c_p = 0.78"\r\n' in text


def test_snapshot_csv_matches_rows_csv():
    # the snapshot writer formats the node, x and y cells once per mesh; its
    # text is the general writer's, special floats included
    dom = build_unit_square(5)
    u = np.linspace(-1.5, 2.0, dom.n_bulk)
    u[:4] = [np.nan, np.inf, -np.inf, 5e-324]
    mu = 1e16 * np.cos(np.arange(dom.n_bulk))
    mu[:2] = [-0.0, -5e-324]
    for m0 in (0.0, 0.1):
        state = SchemeState(v=FieldPair.from_bulk(dom, u), mu=FieldPair.from_bulk(dom, mu),
                            xi=None, j=None, omega=0.0, t=0.0, m0=m0)
        ref = _rows_csv(["node", "x", "y", "u", "mu"],
                        zip(range(dom.n_bulk), dom.coords[:, 0].tolist(),
                            dom.coords[:, 1].tolist(), (u + m0).tolist(), mu.tolist()))
        assert _snapshot_csv(dom, state) == ref


# --- run subcommand ------------------------------------------------------------

def test_run_writes_outputs_and_passes(tmp_path):
    cfg = write_config(tmp_path, QUICK_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    monitors = (out / "monitors.csv").read_text().splitlines()
    assert monitors[0] == ",".join(MonitorRecord.fields())
    assert len(monitors) == 1 + 5  # header + initial + 4 steps
    assert (out / "snapshot_0.csv").exists()
    assert (out / "snapshot_4.csv").exists()
    assert (out / "report.txt").read_text().count("PASS") == 2
    assert (out / "report.csv").exists()
    leftovers = [p for p in os.listdir(out) if p.startswith(".tmp")]
    assert not leftovers


def test_run_outputs_keep_the_umask(tmp_path):
    cfg = write_config(tmp_path, QUICK_RUN)
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
    assert len(modes) == 6  # monitors, three snapshots, two reports
    assert modes == dict.fromkeys(modes, 0o644)


def test_run_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, QUICK_RUN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "monitors.csv").read_bytes() == (out2 / "monitors.csv").read_bytes()
    assert (out1 / "snapshot_4.csv").read_bytes() == (out2 / "snapshot_4.csv").read_bytes()


def test_run_numerical_error_writes_flagged_partial_outputs(tmp_path, monkeypatch, capsys):
    # the step residual norm r1 solves with the mean-constrained stiffness
    def broken(dom, rhs):
        raise NumericalError("mean-constrained stiffness solve lost accuracy")

    monkeypatch.setattr(scheme, "_dual_norm_collapsed", broken)
    cfg = write_config(tmp_path, QUICK_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    monitors = (out / "monitors.csv").read_text().splitlines()
    assert monitors[0] == ",".join(MonitorRecord.fields())
    assert len(monitors) == 2  # header + the initial record
    assert (out / "snapshot_0.csv").exists()
    header, row = (out / "report.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["aborted"] == "1"
    assert "aborted: step 1 (t = 0.001): mean-constrained" in (out / "report.txt").read_text()
    assert "FAIL: all steps converged" in capsys.readouterr().out


def test_run_monitor_failure_writes_flagged_partial_outputs(tmp_path, monkeypatch, capsys):
    # the monitor's V0* norm fails at level 2: that level and those after it
    # are dropped, and the abort names step 2, as a step failure there would
    calls = []
    real = scheme.norm_V0_star

    def failing_from_third_call(ell):
        calls.append(None)
        if len(calls) >= 3:
            raise NumericalError("mean-constrained stiffness solve lost accuracy")
        return real(ell)

    monkeypatch.setattr(scheme, "norm_V0_star", failing_from_third_call)
    cfg = write_config(tmp_path, QUICK_RUN.replace("stride = 2", "stride = 1"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    monitors = (out / "monitors.csv").read_text().splitlines()
    assert len(monitors) == 3  # header + the records of levels 0 and 1
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == ["snapshot_0.csv",
                                                                  "snapshot_1.csv"]
    header, row = (out / "report.csv").read_text().splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    assert (report["steps"], report["aborted"]) == ("1", "1")
    text = (out / "report.txt").read_text()
    assert "steps: 1\n" in text
    assert "aborted: step 2 (t = 0.002): mean-constrained" in text
    assert "FAIL: all steps converged" in capsys.readouterr().out


def test_run_picard_budget_exhausted_writes_flagged_partial_outputs(tmp_path, monkeypatch,
                                                                   capsys):
    # no Newton direction hands every step to Picard, which runs in what is
    # left of newton_max: all of it, as a stalled CG counts no iteration
    monkeypatch.setattr(scheme, "_newton_direction", lambda system, it, rtol: None)
    cfg = write_config(tmp_path, QUICK_RUN.replace("[scheme]\n", "[scheme]\nnewton_max = 2\n"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    monitors = (out / "monitors.csv").read_text().splitlines()
    assert len(monitors) == 2  # header + the initial record
    header, row = (out / "report.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["aborted"] == "1"
    assert re.search(r"^aborted: step 1 \(t = 0\.001\): Picard fallback did not converge "
                     r"in 2 iterations \(residuals \S+e[-+]\d+, \S+e[-+]\d+\)$",
                     (out / "report.txt").read_text(), re.M)
    assert "FAIL: all steps converged" in capsys.readouterr().out


def test_run_non_finite_iterate_writes_flagged_partial_outputs(tmp_path, capsys):
    # a forcing at the edge of the float range from t = 0.001 on overflows the
    # first Newton iterate; at t = 0 it is zero, so initialization succeeds
    forcing = tmp_path / "forcing.csv"
    forcing.write_text("".join(f"0.001,{node},1e308\n" for node in range(25)))
    cfg = write_config(tmp_path, "[mesh]\nn = 5\n[scheme]\nt_end = 0.002\n"
                                 f"[forcing]\npreset = csv\npath = {forcing}\n")
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    monitors = (out / "monitors.csv").read_text().splitlines()
    assert len(monitors) == 2  # header + the initial record
    header, row = (out / "report.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["aborted"] == "1"
    assert "aborted: step 1 (t = 0.001): " in (out / "report.txt").read_text()
    assert "FAIL: all steps converged" in capsys.readouterr().out


def test_logarithmic_run_at_tiny_eps_aborts_without_a_runtime_warning(tmp_path):
    # at eps = 1e-19 the Picard iterates of the first step drive the lumped
    # norm of R2 past the float range; the overflow must end the step as a
    # flagged abort, not escape the residual norms as a RuntimeWarning
    cfg = write_config(tmp_path, "[mesh]\nn = 5\n"
                                 "[scheme]\neps = 1e-19\ntau = 1e-3\nt_end = 0.002\n"
                                 "[graphs]\nbulk = logarithmic\nboundary = logarithmic\n"
                                 "[init]\npreset = random\namplitude = 0.3\nseed = 1\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "chbs.cli", "run",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr + proc.stdout
    assert re.search(r"^aborted: step 1 \(t = 0\.001\): .* did not converge in \d+ iterations "
                     r"\(residuals \d\.\d{3}e\+\d+, inf\)$",
                     (out / "report.txt").read_text(), re.M)


@pytest.mark.filterwarnings("error")  # no overflow warning on the way
def test_run_forcing_overflowing_at_t0_exits_2_before_any_step(tmp_path, capsys):
    # the initial mean offset of a constant 1e308 forcing overflows to -inf
    cfg = write_config(tmp_path, "[mesh]\nn = 5\n[scheme]\nt_end = 0.002\n"
                                 "[forcing]\npreset = constant\nvalue = 1e308\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the forcing at t = 0 gives a non-finite")
    assert "omega = -inf" in err
    assert not (out / "monitors.csv").exists()


@pytest.mark.filterwarnings("error")  # no overflow warning on the way
@pytest.mark.parametrize("scheme_keys, graph_keys, seed, value", [
    ("", "pi_slope = -1e300\n", 3, "nan"),
    ("eps = 1.1e-206\n", "bulk = logarithmic\nboundary = logarithmic\n", 1, "inf"),
], ids=["pi-slope-1e300", "log-eps-1.1e-206"])
def test_run_overflowing_level_0_exits_2_before_writing_it(tmp_path, capsys, scheme_keys,
                                                          graph_keys, seed, value):
    # |mu0|_V overflows while mu0 itself is finite; the run used to write a
    # row 0 holding nan or inf and abort at step 1
    cfg = write_config(tmp_path, f"[mesh]\nn = 5\n[scheme]\nt_end = 0.002\n{scheme_keys}"
                                 f"[graphs]\n{graph_keys}"
                                 f"[init]\npreset = random\namplitude = 0.3\nseed = {seed}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the initial potential norm |mu0|_V is not finite ({value})")
    assert not (out / "monitors.csv").exists()


def test_run_out_of_domain_init_exits_2(tmp_path, capsys):
    text = """
[mesh]
n = 5
[graphs]
bulk = obstacle
boundary = obstacle
[init]
preset = constant
value = 1.5
"""
    cfg = write_config(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "initial value 1.5 at bulk node" in capsys.readouterr().err


def test_run_large_constant_init_converges(tmp_path, capsys):
    # a constant init is an equilibrium whose mu is the constant 8.99e5; its
    # rounding in Ac mu sat above the r1 tolerance before mu was centred
    cfg = write_config(tmp_path, "[mesh]\nn = 5\n[scheme]\neps = 0.1\ntau = 0.001\n"
                                 "t_end = 0.01\n[graphs]\nbulk = polynomial\n"
                                 "boundary = polynomial\n[init]\npreset = constant\n"
                                 "value = 1e5\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "PASS: all steps converged" in capsys.readouterr().out
    assert len((out / "monitors.csv").read_text().splitlines()) == 1 + 11


def test_run_init_mean_too_large_to_remove_exits_2(tmp_path, capsys):
    # the combined mean of this constant rounds one ulp (8.0) off, so removing
    # it leaves a constant that the zero-mean fluctuation may not have
    cfg = write_config(tmp_path, "[init]\npreset = constant\nvalue = -5.85089496629928e+16\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "error: initial data: its mean -5.85" in capsys.readouterr().err


def test_uncreatable_output_dir_exits_2_before_running(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_config(tmp_path, "[mesh]\nn = 5\n[scheme]\nt_end = 0.002\n")

    def no_run(*args, **kwargs):
        raise AssertionError("computation started before the output directory existed")
    monkeypatch.setattr("chbs.cli.run", no_run)
    monkeypatch.setattr("chbs.cli.build_unit_square", no_run)
    for command, config in (("run", ["--config", cfg]), ("check", [])):
        assert main([command, *config, "--out", str(blocker / "x"), "--quiet"]) == 2
        assert "cannot write" in capsys.readouterr().err


def test_unwritable_output_file_exits_2_naming_it(tmp_path, capsys):
    # a directory in the place of monitors.csv cannot be replaced by a file
    cfg = write_config(tmp_path, "[mesh]\nn = 5\n[scheme]\nt_end = 0.002\n")
    out = tmp_path / "out"
    (out / "monitors.csv").mkdir(parents=True)
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert f"error: cannot write {out / 'monitors.csv'}: " in capsys.readouterr().err
    assert not [p for p in os.listdir(out) if p.startswith(".tmp_chbs_")]


def test_empty_output_dir_is_the_working_directory(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "[mesh]\nn = 5\n[scheme]\nt_end = 0.002\n[output]\ndir =\n")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    assert (tmp_path / "monitors.csv").exists()


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--out", str(tmp_path), "--quiet"]) == 2


def test_run_unreadable_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.cfg")
    assert main(["run", "--config", missing, "--quiet"]) == 2
    assert f"error: cannot read {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("command, count", [
    ("run", 2), ("eps-study", 2), ("cont-dep", 3), ("check", 2),
])
def test_wrong_number_of_configs_exits_2(tmp_path, capsys, command, count):
    cfg = write_config(tmp_path, "[mesh]\nn = 3\n")
    out = tmp_path / "out"
    argv = [command] + ["--config", cfg] * count + ["--out", str(out), "--quiet"]
    assert main(argv) == 2
    assert f"got {count}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[scheme]\neps = 2.0\n")
    assert main(["run", "--config", cfg, "--quiet"]) == 2
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[init]\npreset = csv\n", "path is required when the csv init preset is used"),
    ("[forcing]\npreset = csv\n", "path is required when the csv forcing preset is used"),
    ("[graphs]\nbulk = obstacle\nboundary = polynomial\n",
     "boundary graph domain must be contained in the bulk one"),
    ("[graphs]\nrho = 0\n", "rho must be positive and finite"),
    ("[graphs]\nrho = 0.5\n",
     "no c0 gives |beta°| <= rho*|beta_bnd°| + c0 for a polynomial bulk and a polynomial "
     "boundary graph at rho = 0.5"),
    ("[graphs]\nrho = 0.999\n", "polynomial boundary graph at rho = 0.999"),
    ("[graphs]\nbulk = logarithmic\nboundary = logarithmic\nrho = 0.999\n",
     "logarithmic boundary graph at rho = 0.999"),
    ("[graphs]\nc0 = 1\n", "unknown key 'c0' in section [graphs]"),
    ("[scheme]\nnewton_max = 0\n", "newton_max must be at least 1"),
    ("[scheme]\nt_end = 0.002\n[graphs]\nrho = 1e300\n", "rho is too large"),
    ("[scheme]\nt_end = 0.002\n[graphs]\nrho = 1e308\n", "rho is too large"),
], ids=["init-csv-without-path", "forcing-csv-without-path", "bulk-domain-too-small",
        "rho-zero", "rho-too-small", "cubic-rho-0.999", "log-rho-0.999", "c0-unknown-key",
        "newton-max-zero", "rho-1e300", "rho-1e308"])
def test_inconsistent_config_exits_2_before_any_step(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, f"[mesh]\nn = 5\n{text}")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_increasing_perturbation_exits_2_before_any_step(tmp_path, capsys):
    cfg = write_config(tmp_path, "[mesh]\nn = 17\n[scheme]\neps = 0.02\ntau = 2e-2\n"
                                 "t_end = 0.4\n[graphs]\npi_slope = 40.0\n[init]\n"
                                 "preset = random\nseed = 7919\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "nonincreasing perturbation" in err and "pi_slope must be <= 0" in err
    assert not (tmp_path / "out").exists()


def test_splitting_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "[scheme]\nsplitting = convex_split\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "unknown key 'splitting' in section [scheme]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_scipy_special_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, chbs.cli; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("section, key, raw", [
    ("scheme", "t_end", "nan"),
    ("scheme", "t_end", "inf"),
    ("scheme", "eps_list", "0.5,nan"),
    ("graphs", "pi_slope", "nan"),
    ("graphs", "log_c", "nan"),
    ("graphs", "rho", "inf"),
    ("forcing", "value", "nan"),
    ("forcing", "value", "-inf"),
])
def test_non_finite_config_value_exits_2(tmp_path, capsys, section, key, raw):
    cfg = write_config(tmp_path, f"[mesh]\nn = 5\n[{section}]\n{key} = {raw}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be a" in err and "finite number" in err and f"got {raw!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# --- check subcommand ------------------------------------------------------------

def test_check_default_mesh_passes(tmp_path):
    out = tmp_path / "out"
    assert main(["check", "--out", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert "FAIL" not in report
    assert report.count("PASS") == 3
    assert (out / "report.csv").read_text().startswith("item,passed,detail")


def test_check_at_stepping_mesh_passes(tmp_path):
    cfg = write_config(tmp_path, "[mesh]\nn = 65\n")
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert "FAIL:" not in (out / "report.txt").read_text()


# each wrong c_p as a function of the true one (0.78327 at n = 49)
@pytest.mark.parametrize("wrong", [lambda cp: 0.95, lambda cp: 0.99, lambda cp: 0.999,
                                   lambda cp: cp * (1 - 1e-3), lambda cp: cp * (1 + 1e-3)],
                         ids=["0.95", "0.99", "0.999", "true*(1-1e-3)", "true*(1+1e-3)"])
def test_check_wrong_coercivity_constant_exits_1(tmp_path, monkeypatch, wrong):
    real = verify.poincare_constant

    def wrong_pair(dom, eigenvector):
        cp, x = real(dom, eigenvector=True)
        return wrong(cp), x

    monkeypatch.setattr(verify, "poincare_constant", wrong_pair)
    cfg = write_config(tmp_path, "[mesh]\nn = 49\n")
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert "FAIL: coercivity constant certified" in (out / "report.txt").read_text()


def test_check_eigensolve_failure_exits_1(tmp_path, monkeypatch, capsys):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0),
                                  np.empty((0, 0)))

    monkeypatch.setattr(spaces, "eigsh", stalled)
    assert main(["check", "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert "error: coercivity eigensolve did not converge at n = 9" in capsys.readouterr().err


# --- cont-dep subcommand -----------------------------------------------------------

CONT_BASE = """
[mesh]
n = 5
[scheme]
eps = 0.1
tau = 1e-3
t_end = 0.004
[init]
preset = constant
value = 0.1
[forcing]
preset = {forcing}
value = {value}
"""


def test_cont_dep_identical_configs_degenerate(tmp_path):
    cfg = write_config(tmp_path, CONT_BASE.format(forcing="zero", value=0.0))
    out = tmp_path / "out"
    code = main(["cont-dep", "--config", cfg, "--config", cfg,
                 "--out", str(out), "--quiet"])
    assert code == 0
    assert "ratio: 0 (degenerate)" in (out / "report.txt").read_text()


def test_cont_dep_perturbed_forcing(tmp_path):
    c1 = write_config(tmp_path, CONT_BASE.format(forcing="zero", value=0.0), "a.cfg")
    c2 = write_config(tmp_path, CONT_BASE.format(forcing="constant", value=0.01), "b.cfg")
    out = tmp_path / "out"
    assert main(["cont-dep", "--config", c1, "--config", c2,
                 "--out", str(out), "--quiet"]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "tau,sup_ratio"
    assert len(lines) == 4


def test_cont_dep_rejects_shared_key_difference(tmp_path, capsys):
    c1 = write_config(tmp_path, CONT_BASE.format(forcing="zero", value=0.0), "a.cfg")
    c2 = write_config(tmp_path, "[mesh]\nn = 7\n", "b.cfg")
    assert main(["cont-dep", "--config", c1, "--config", c2, "--quiet"]) == 2
    assert "differ" in capsys.readouterr().err


def test_cont_dep_rejects_eps_list_difference(tmp_path, capsys):
    base = CONT_BASE.format(forcing="zero", value=0.0)
    c1 = write_config(tmp_path, base, "a.cfg")
    c2 = write_config(tmp_path, base + "[scheme]\neps_list = 0.5,0.25,0.1\n", "b.cfg")
    assert main(["cont-dep", "--config", c1, "--config", c2, "--quiet"]) == 2
    assert "'eps_list' in [scheme] differs" in capsys.readouterr().err


def test_cont_dep_needs_two_configs(tmp_path):
    cfg = write_config(tmp_path, "")
    assert main(["cont-dep", "--config", cfg, "--quiet"]) == 2


# --- eps-study subcommand -------------------------------------------------------------

def test_eps_study_quick(tmp_path):
    cfg = write_config(tmp_path, QUICK_RUN)
    out = tmp_path / "out"
    assert main(["eps-study", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert "PASS" in report
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0].startswith("eps,")
    assert len(csv_lines) == 5  # header + four sweep rows


@pytest.mark.parametrize("eps_list, message", [
    ("0.5,0.25", "eps sweep needs at least 3 entries"),
    ("0.5,0.25,2", "line 4: eps_list entries must lie in (0,1], got '0.5,0.25,2'"),
    ("0.5,0.5,0.25", "eps sweep must be strictly decreasing"),
    ("0.25,0.5,0.5", "eps sweep must be strictly decreasing"),
], ids=["too-few", "outside-unit-interval", "repeat", "repeat-unsorted"])
def test_eps_study_rejects_a_bad_sweep_with_exit_2(tmp_path, capsys, eps_list, message):
    cfg = write_config(tmp_path, f"[mesh]\nn = 5\n[scheme]\neps_list = {eps_list}\n")
    assert main(["eps-study", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o" / "report.txt").exists()


# --- csv forcing and init --------------------------------------------------------------

def test_csv_init_and_forcing(tmp_path):
    import numpy as np
    from chbs.domain import build_unit_square
    dom = build_unit_square(5)
    init_rows = ["node,value"] + [f"{k},{0.01 * (k % 3)}" for k in range(dom.n_bulk)]
    init_path = tmp_path / "init.csv"
    init_path.write_text("\n".join(init_rows) + "\n")
    forcing_rows = ["t,node,value", "0.0,3,0.5", f"0.002,{dom.n_bulk + 2},-0.25"]
    forcing_path = tmp_path / "forcing.csv"
    forcing_path.write_text("\n".join(forcing_rows) + "\n")
    text = f"""
[mesh]
n = 5
[scheme]
t_end = 0.004
[init]
preset = csv
path = {init_path}
[forcing]
preset = csv
path = {forcing_path}
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    spec = load_config(cfg)
    forcing = build_forcing(spec, dom)
    f0 = forcing(0.001)
    assert f0.bulk[3] == 0.5 and np.all(f0.boundary == 0.0)
    f1 = forcing(0.003)  # piecewise constant: latest table time <= t
    assert f1.boundary[2] == -0.25 and f1.bulk[3] == 0.0


@pytest.mark.parametrize("section, text, message", [
    ("init", None, "cannot read"),
    ("forcing", None, "cannot read"),
    ("init", "node,value\n3\n", "malformed row ['3']"),
    ("forcing", "t,node,value\n0.0,3\n", "malformed row ['0.0', '3']"),
    ("forcing", "t,node,value\n0.0,3,nan\n", "malformed row ['0.0', '3', 'nan']"),
    ("forcing", "0.0,3,inf\n", "malformed row ['0.0', '3', 'inf']"),
    ("init", "node,value\n0,nan\n", "malformed row ['0', 'nan']"),
    # the header is the first non-empty row, so the short row is the culprit
    ("init", "\nnode,value\n3\n", "malformed row ['3']"),
    ("init", "node,value\n3,0.1\n4,0.0\n3,0.2\n", "duplicate row ['3', '0.2']"),
    # times compare as numbers: 0 and 0.0 are one time
    ("forcing", "t,node,value\n0.0,3,0.5\n0,3,0.25\n", "duplicate row ['0', '3', '0.25']"),
    # the n = 5 mesh has 25 bulk nodes (ids 0..24) and 16 boundary ones (25..40)
    ("init", "node,value\n0,0.1\n", "missing 24 bulk nodes"),
    ("init", "node,value\n25,0.1\n", "node 25 out of range, mesh has 25 bulk nodes"),
    ("forcing", "t,node,value\n0.0,41,0.5\n", "node id 41 out of range"),
], ids=["init-missing", "forcing-missing", "init-short-row", "forcing-short-row",
        "forcing-nan-value", "forcing-inf-first-row", "init-nan-value",
        "init-header-after-blank-line", "init-duplicate-node", "forcing-duplicate-row",
        "init-missing-nodes", "init-node-out-of-range", "forcing-node-out-of-range"])
def test_bad_csv_input_exits_2(tmp_path, capsys, section, text, message):
    path = tmp_path / f"{section}.csv"
    if text is not None:
        path.write_text(text)
    cfg = write_config(tmp_path, f"[mesh]\nn = 5\n[{section}]\npreset = csv\npath = {path}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(path) in err
    assert "Traceback" not in err


def test_csv_header_after_blank_lines_is_skipped(tmp_path):
    init_path = tmp_path / "init.csv"
    n_bulk = 25  # the n = 5 mesh
    init_path.write_text("\n\nnode,value\n" + "".join(f"{k},0.0\n" for k in range(n_bulk)))
    forcing_path = tmp_path / "forcing.csv"
    forcing_path.write_text("\nt,node,value\n0.0,3,0.5\n")
    cfg = write_config(tmp_path, f"[mesh]\nn = 5\n[scheme]\nt_end = 0.002\n"
                                 f"[init]\npreset = csv\npath = {init_path}\n"
                                 f"[forcing]\npreset = csv\npath = {forcing_path}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_headerless_utf8_bom_forcing_csv_keeps_every_row(tmp_path, domain_cache):
    forcing_path = tmp_path / "forcing.csv"
    forcing_path.write_bytes(codecs.BOM_UTF8 + b"0.0,3,5.0\n0.002,4,1.0\n")
    cfg = write_config(tmp_path, f"[mesh]\nn = 5\n[scheme]\nt_end = 0.004\n"
                                 f"[forcing]\npreset = csv\npath = {forcing_path}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    forcing = build_forcing(load_config(cfg), domain_cache(5))
    assert forcing(0.001).bulk[3] == 5.0 and forcing(0.003).bulk[4] == 1.0


@pytest.mark.parametrize("steps", [15998, 100000])
def test_csv_forcing_row_applies_at_the_accumulated_level_time(tmp_path, domain_cache, steps):
    # a level's clock adds tau once per step; after 15998 steps of 1e-3 it
    # reads 3.4e-12 below 15.998, after 10**5 steps 1.1e-10 above 100
    row_t = steps * 1e-3
    forcing_path = tmp_path / "forcing.csv"
    forcing_path.write_text(f"t,node,value\n0.0,3,5.0\n{row_t!r},3,1.0\n")
    cfg = write_config(tmp_path, f"[mesh]\nn = 5\n"
                                 f"[forcing]\npreset = csv\npath = {forcing_path}\n")
    forcing = build_forcing(load_config(cfg), domain_cache(5))
    t = 0.0
    for _ in range(steps):
        t += 1e-3
    assert t != row_t
    assert forcing(t).bulk[3] == 1.0 and forcing(t - 1e-3).bulk[3] == 5.0


@pytest.mark.parametrize("kind", ["config", "init", "forcing"])
def test_non_utf8_input_exits_2(tmp_path, capsys, kind):
    bad = tmp_path / f"{kind}.bin"
    bad.write_bytes(b"node,value\n0,\xff\n")
    cfg = str(bad) if kind == "config" else write_config(
        tmp_path, f"[mesh]\nn = 5\n[{kind}]\npreset = csv\npath = {bad}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")
