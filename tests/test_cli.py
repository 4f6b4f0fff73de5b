"""CLI: grammar, envelope schema, exit codes, determinism, formats."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import spherepack
from spherepack import cli
from spherepack.cli import RunConfig, _to_json, run
from spherepack.errors import ConfigError


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text: str) -> str:
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": X', text)


def test_packing_density_report(capsys):
    code, out, _ = invoke(capsys, "packing", "density")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "packing density"
    assert data["pass"] is True
    assert abs(data["results"]["value"] - math.pi ** 4 / 384.0) < 1e-12
    assert set(data) == {"command", "config", "results", "pass", "wall_time_ms"}


def test_envelope_echoes_config(capsys):
    code, out, _ = invoke(capsys, "packing", "mc", "--samples", "1000", "--seed", "7")
    data = json.loads(out)
    assert data["config"]["seed"] == 7
    code, out, _ = invoke(capsys, "magic", "eval", "--r", "1")
    data = json.loads(out)
    assert data["config"]["quadrature"]["gauss_order"] == 32


def test_float_formatting_17_digits(capsys):
    _, out, _ = invoke(capsys, "packing", "density")
    m = re.search(r'"target": ([0-9.]+)', out)
    assert m and len(m.group(1).replace(".", "")) >= 16


@pytest.mark.parametrize("value, want", [
    (np.int64(-3), "-3"),
    (np.float32(0.1), "0.10000000149011612"),
    (np.float64(0.1), "0.10000000000000001"),
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
    (Fraction(1, 3), '"1/3"'),
    (True, "true"),
    (7, "7"),
    (0.1, "0.10000000000000001"),
])
def test_json_scalars(value, want):
    assert _to_json(value) == want


def test_forms_identities(capsys):
    code, out, _ = invoke(capsys, "forms", "identities", "--order", "20")
    assert code == 0
    data = json.loads(out)
    res = data["results"]
    assert res["ramanujan_zero"] and res["jacobi_zero"] and res["delta_matches_eta_product"]
    # --order overrides the config's series_order, and the report echoes it
    assert res["order"] == data["config"]["series_order"] == 20


def test_forms_eval(capsys):
    code, out, _ = invoke(capsys, "forms", "eval", "--form", "E4", "--im", "1")
    assert code == 0
    data = json.loads(out)
    assert abs(data["results"]["value"]["re"] - 1.4557628) < 2e-7


@pytest.mark.parametrize("form", ["E4", "Theta00"])
def test_forms_eval_far_along_the_real_axis(capsys, form):
    # 1e17 is a multiple of both periods, 1 and 8
    values = []
    for re_tau in ("0", "1e17"):
        code, out, _ = invoke(capsys, "forms", "eval", "--form", form, "--re", re_tau,
                              "--im", "0.5")
        assert code == 0
        values.append(json.loads(out)["results"]["value"])
    assert values[0] == values[1]


def test_forms_eval_unknown_form(capsys):
    code, _, err = invoke(capsys, "forms", "eval", "--form", "E8")
    assert code == 2
    assert "unknown form" in err


def test_lattice_shells_json_and_csv(capsys):
    code, out, _ = invoke(capsys, "lattice", "shells", "--max-norm2", "8")
    assert code == 0
    data = json.loads(out)
    shells = {s["norm2"]: s["count"] for s in data["results"]["shells"]}
    assert shells == {2: 240, 4: 2160, 6: 6720, 8: 17520}
    code, out, _ = invoke(capsys, "lattice", "shells", "--max-norm2", "8",
                          "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "norm2,count"
    assert lines[1] == "2,240" and lines[-1] == "8,17520"


def test_csv_rejected_for_non_tabular(capsys):
    code, _, err = invoke(capsys, "packing", "density", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_lattice_decode(capsys):
    code, out, _ = invoke(capsys, "lattice", "decode", "--point",
                          "0.9,0.9,0,0,0,0,0,0")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["nearest"][:2] == [1.0, 1.0]
    assert abs(data["results"]["distance"] - math.sqrt(0.02)) < 1e-12


def test_lattice_decode_bad_point(capsys):
    code, _, err = invoke(capsys, "lattice", "decode", "--point", "1,2,3")
    assert code == 2


def test_lattice_info(capsys):
    code, out, _ = invoke(capsys, "lattice", "info")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["theta_matches_eisenstein"] is True
    assert data["results"]["covolume"] == 1.0


def test_packing_mc_small(capsys):
    code, out, _ = invoke(capsys, "packing", "mc", "--radius", "3", "--samples",
                          "20000", "--seed", "42")
    assert code == 0
    data = json.loads(out)
    assert 0.0 <= data["results"]["value"] <= 1.0
    assert data["results"]["seed"] == 42


def test_magic_eval(capsys):
    code, out, _ = invoke(capsys, "magic", "eval", "--r", "0")
    assert code == 0
    data = json.loads(out)
    assert abs(data["results"]["g"] - 1.0) < 1e-9
    assert abs(data["results"]["a"]["im"] + 8640.0 / math.pi) < 1e-6


def test_magic_table_csv(capsys):
    code, out, _ = invoke(capsys, "magic", "table", "--which", "G", "--grid",
                          "0:2:5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,value"
    assert len(lines) == 6


def test_magic_verify(capsys):
    code, out, _ = invoke(capsys, "magic", "verify")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["max_rel_error"] < 1e-6
    assert data["pass"] is True


def test_bound_command(capsys):
    code, out, _ = invoke(capsys, "bound")
    assert code == 0
    data = json.loads(out)
    res = data["results"]
    assert abs(res["bound"] - res["target"]) < 1e-6
    assert res["target"] == pytest.approx(math.pi ** 4 / 384.0, rel=1e-15)
    assert data["pass"] is True


def test_axis_check_both(capsys):
    code, out, _ = invoke(capsys, "axis", "check", "--grid", "0.1:10:50")
    assert code == 0
    data = json.loads(out)
    conv = data["results"]["conventions"]
    assert conv["sweighted"]["pass"] is True
    assert conv["direct"]["pass"] is False
    assert data["results"]["certified_by"] == "sweighted"
    assert set(data["results"]) == {"conventions", "certified_by"}


def test_axis_check_direct_fails(capsys):
    code, out, _ = invoke(capsys, "axis", "check", "--convention", "direct",
                          "--grid", "0.1:10:50")
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False


def test_determinism_byte_identical(capsys):
    _, out1, _ = invoke(capsys, "lattice", "shells", "--max-norm2", "10")
    _, out2, _ = invoke(capsys, "lattice", "shells", "--max-norm2", "10")
    assert strip_timing(out1) == strip_timing(out2)
    _, out3, _ = invoke(capsys, "bound")
    _, out4, _ = invoke(capsys, "bound")
    assert strip_timing(out3) == strip_timing(out4)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "packing", "density", "--out", str(path))
    assert code == 0
    assert out == ""
    data = json.loads(path.read_text())
    assert data["command"] == "packing density"


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 11, "quadrature": {"gauss_order": 24}}))
    code, out, _ = invoke(capsys, "packing", "mc", "--samples", "1000", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["config"]["seed"] == 11
    code, out, _ = invoke(capsys, "magic", "eval", "--r", "1", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["config"]["quadrature"]["gauss_order"] == 24


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seeed": 11}))
    code, _, err = invoke(capsys, "packing", "density", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


#: the integer fields of RunConfig and QuadratureConfig, as keys in a config file
INT_FIELDS = [("series_order",), ("axis_grid_n",), ("seed",), ("threads",),
              ("quadrature", "gauss_order"), ("quadrature", "panels_per_segment")]


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("key", INT_FIELDS, ids=".".join)
def test_config_refuses_a_non_integer_in_an_integer_field(tmp_path, capsys, key, value):
    data = {key[0]: value} if len(key) == 1 else {key[0]: {key[1]: value}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "packing", "mc", "--samples", "100", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert f"{key[-1]} must be an integer" in err


@pytest.mark.parametrize("value", [True, "20", None], ids=["bool", "str", "null"])
@pytest.mark.parametrize("key", ["axis_grid_lo", "axis_grid_hi"])
def test_config_refuses_a_non_number_in_a_float_field(tmp_path, capsys, key, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = invoke(capsys, "axis", "check", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert f"{key} must be a number" in err


@pytest.mark.parametrize("data", [
    {"eta_min": 0.3}, {"output_format": "csv"},
    {"quadrature": {"ray_truncation": 4.0}}, {"quadrature": {"tail_tol": 1e-9}},
    {"series_order": 1001}, {"axis_grid_n": 100001},
    {"quadrature": {"gauss_order": 257}}, {"quadrature": {"panels_per_segment": 257}},
], ids=["eta_min", "output_format", "ray_truncation", "tail_tol", "series_order_cap",
        "axis_grid_n_cap", "gauss_order_cap", "panels_per_segment_cap"])
def test_config_refuses_retired_keys_and_values_above_a_cap(tmp_path, capsys, data):
    # the Im(tau) floor, the ray's end and its tail tolerance are constants,
    # and --format alone sets the output format
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "forms", "eval", "--form", "E4", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


#: a small run of every command
SMALL_RUNS = {
    "forms eval": ["--form", "E4"],
    "forms identities": ["--order", "8"],
    "lattice shells": ["--max-norm2", "4"],
    "lattice decode": ["--point", "0.9,0.9,0,0,0,0,0,0"],
    "lattice info": [],
    "packing density": [],
    "packing mc": ["--samples", "1000"],
    "magic eval": ["--r", "1"],
    "magic table": ["--which", "G", "--grid", "0:2:5"],
    "magic verify": [],
    "bound": [],
    "axis check": ["--convention", "sweighted", "--grid", "0.1:10:20"],
}


class _RecordingConfig:
    """Passes attribute reads through to a RunConfig and records their names."""

    def __init__(self, config):
        self._config, self.read = config, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


def test_small_runs_cover_every_command():
    assert list(SMALL_RUNS) == list(cli._COMMANDS)


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_command_reads_and_echoes_exactly_its_declared_fields(monkeypatch, capsys, command):
    entry = cli._COMMANDS[command]
    proxies = []

    def recording_handler(args, config):
        proxies.append(_RecordingConfig(config))
        return entry.handler(args, proxies[-1])

    monkeypatch.setitem(cli._COMMANDS, command, entry._replace(handler=recording_handler))
    code, out, _ = invoke(capsys, *command.split(), *SMALL_RUNS[command])
    assert code == 0
    assert proxies[0].read == set(entry.reads)
    assert set(json.loads(out)["config"]) == set(entry.reads)


#: the config flags, each with the commands that take it
CONFIG_FLAGS = {"--seed": {"packing mc"}, "--threads": {"packing mc"},
                "--order": {"forms identities"}}


@pytest.mark.parametrize("flag, command", [
    (flag, command) for flag, takers in CONFIG_FLAGS.items() for command in SMALL_RUNS
    if command not in takers])
def test_config_flag_refused_where_its_field_is_unread(capsys, flag, command):
    code, out, err = invoke(capsys, *command.split(), *SMALL_RUNS[command], flag, "1")
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_axis_grid_flag_and_config_file_give_the_same_report(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"axis_grid_lo": 0.1, "axis_grid_hi": 10.0, "axis_grid_n": 50}))
    code, by_flag, _ = invoke(capsys, "axis", "check", "--grid", "0.1:10:50")
    assert code == 0
    assert json.loads(by_flag)["config"] == {
        "axis_grid_lo": 0.1, "axis_grid_hi": 10.0, "axis_grid_n": 50}
    code, by_file, _ = invoke(capsys, "axis", "check", "--config", str(cfg))
    assert code == 0
    assert strip_timing(by_flag) == strip_timing(by_file)


def test_usage_error_returns_2(capsys):
    assert run(["lattice", "bogus"]) == 2
    assert run([]) == 2


def test_env_threads(monkeypatch, capsys):
    monkeypatch.setenv("SPHEREPACK_THREADS", "2")
    # two sample blocks, so both requested threads run
    code, out, _ = invoke(capsys, "packing", "mc", "--radius", "2",
                          "--samples", "65536", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["threads"] == data["config"]["threads"] == 2


def test_threads_flag_takes_precedence_over_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("SPHEREPACK_THREADS", "2")
    code, out, _ = invoke(capsys, "packing", "mc", "--radius", "2",
                          "--samples", "65536", "--threads", "1")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["threads"] == data["config"]["threads"] == 1


def test_env_threads_ignored_by_commands_that_run_no_threads(monkeypatch, capsys):
    monkeypatch.setenv("SPHEREPACK_THREADS", "many")
    code, out, _ = invoke(capsys, "lattice", "info")
    assert code == 0
    assert json.loads(out)["config"] == {}


def test_mc_reports_the_workers_that_ran(capsys):
    # 1,000 samples are one block, so one worker runs whatever is asked for
    code, out, _ = invoke(capsys, "packing", "mc", "--threads", "64", "--samples", "1000")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["threads"] == 1
    assert data["config"]["threads"] == 64


def test_mc_default_workers_follow_the_cpu_affinity(monkeypatch, capsys):
    # eight CPUs in the machine but one usable: three blocks, one worker
    monkeypatch.delenv("SPHEREPACK_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code, out, _ = invoke(capsys, "packing", "mc", "--samples", "70000")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["threads"] == 1
    assert data["config"]["threads"] == 0


@pytest.mark.parametrize("radius, samples", [("5", "65536"), ("1e12", "4096")])
def test_mc_rechecked_same_on_every_thread_count(monkeypatch, capsys, radius, samples):
    runs = []
    for flags, env in (([], None), (["--threads", "1"], None), (["--threads", "2"], None),
                       ([], "2")):
        if env is None:
            monkeypatch.delenv("SPHEREPACK_THREADS", raising=False)
        else:
            monkeypatch.setenv("SPHEREPACK_THREADS", env)
        code, out, _ = invoke(capsys, "packing", "mc", "--radius", radius,
                              "--samples", samples, *flags)
        assert code == 0
        runs.append(json.loads(out)["results"])
    assert len({(r["value"], r["rechecked"]) for r in runs}) == 1
    if radius == "1e12":    # beyond the float32 pass's reach: every sample is exact
        assert runs[0]["rechecked"] == int(samples)
    else:
        assert 0 < runs[0]["rechecked"] < int(samples) // 100


def test_mc_sigma_deviation_is_null_without_a_spread(capsys):
    # one sample has standard error 0, so the deviation in sigmas is undefined
    code, out, _ = invoke(capsys, "packing", "mc", "--samples", "1")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["stderr"] == 0.0 and results["deviation_sigmas"] is None


def test_env_threads_invalid(monkeypatch, capsys):
    monkeypatch.setenv("SPHEREPACK_THREADS", "many")
    code, _, err = invoke(capsys, "packing", "mc", "--radius", "2",
                          "--samples", "5000")
    assert code == 2


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(series_order=1)
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"quadrature": {"nodes": 3}})


@pytest.mark.parametrize("argv", [
    ["magic", "eval", "--r", "nan"],
    ["magic", "eval", "--r", "inf"],
    ["magic", "eval", "--r", "-1"],
    ["forms", "eval", "--form", "Phi0", "--im", "nan"],
    ["forms", "eval", "--form", "E4", "--re", "inf"],
    ["forms", "eval", "--form", "E4", "--im", "0.3"],
    ["packing", "mc", "--radius", "nan", "--samples", "1000"],
    ["magic", "table", "--which", "G", "--grid", "0:nan:5"],
    ["axis", "check", "--grid=-inf:1:5"],
    # refused by the library with ValueError
    ["packing", "mc", "--samples", "0"],
    ["packing", "mc", "--radius", "-1"],
    ["lattice", "shells", "--max-norm2", "-2"],
    ["lattice", "decode", "--point", "nan,0,0,0,0,0,0,0"],
    ["forms", "identities", "--order", "1"],
    ["axis", "check", "--grid", "0:1:5"],
    # r^2 would overflow: refused by the Laplace sweep instead of giving NaN
    ["magic", "eval", "--r", "1e300"],
    ["magic", "table", "--which", "G", "--grid=-1e308:1e308:5"],
    # beyond 2^50 the decoder's coordinate sums are no longer exact integers
    ["lattice", "decode", "--point=1e300,0,0,0,0,0,0,0"],
    ["lattice", "decode", "--point=1e19,0.5,0,0,0,0,0,0"],
    ["packing", "mc", "--radius=1e19", "--samples=1"],
    # beyond 2^60 samples the lane counters wrap
    ["packing", "mc", f"--samples={2 ** 60 + 1}"],
    # caps on outside input: ResourceGuard and the thread bound
    ["lattice", "shells", "--max-norm2", "200"],
    ["packing", "mc", "--samples", "100", "--threads", "65"],
    # caps on outside input: series orders and grid sizes
    ["forms", "identities", "--order", "1001"],
    ["forms", "identities", "--order", "100000000"],
    ["magic", "table", "--which", "A", "--grid", "0:1:100001"],
    ["axis", "check", "--grid", "0.1:1:1000000000000"],
])
def test_bad_input_refused_at_boundary(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, builds", [
    (["magic", "verify"], 16),
    (["axis", "check"], 18),
    (["forms", "identities", "--order", "64"], 8),
])
def test_one_series_build_per_cache_entry(argv, builds):
    # a fresh process, so the count is the command's own exact-series builds
    src = os.path.dirname(os.path.dirname(os.path.abspath(spherepack.__file__)))
    script = (
        "import contextlib, io\n"
        "from spherepack import cli, forms\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run({argv!r}) == 0\n"
        "print(sum(f.cache_info().misses for f in vars(forms).values()\n"
        "          if hasattr(f, 'cache_info')))\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == builds


_CHECK_MODULES = {"cli", "errors", "forms", "qseries", "quadrature"}


def _fresh_process(script: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(spherepack.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


_USAGE_ERROR = ["forms", "eval", "--form", "E5"]


@pytest.mark.parametrize("argv, modules", [
    (["forms", "identities"], _CHECK_MODULES),
    (["axis", "check"], _CHECK_MODULES | {"axis"}),
    (["magic", "verify"], _CHECK_MODULES | {"magic", "lattice"}),
    (["bound"], _CHECK_MODULES | {"magic", "lattice", "cohn_elkies", "packing"}),
    (["forms", "eval", "--form", "E4"], _CHECK_MODULES),
    (["--help"], _CHECK_MODULES),
    (_USAGE_ERROR, _CHECK_MODULES),
])
def test_paper_checks_load_only_their_modules(argv, modules):
    # a fresh process per command, so sys.modules holds that command's imports alone
    out = _fresh_process(
        "import contextlib, io, json, sys\n"
        "from spherepack import cli\n"
        "imported = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.run({argv!r})\n"
        "print(json.dumps([code, imported, sorted(sys.modules)]))\n")
    code, imported, loaded = json.loads(out)
    assert code == (2 if argv == _USAGE_ERROR else 0)
    assert {m for m in loaded if m.startswith("spherepack.")} == {
        f"spherepack.{m}" for m in modules}
    # the exact checks run on the standard library; only float arrays need numpy
    assert "numpy" not in imported
    assert ("numpy" in loaded) == (modules != _CHECK_MODULES)
    assert "numpy.ma" not in loaded
    assert "concurrent.futures" not in loaded


def test_package_imports_submodules_on_first_access():
    out = _fresh_process(
        "import sys\n"
        "import spherepack\n"
        "assert 'spherepack.magic' not in sys.modules and 'numpy' not in sys.modules\n"
        "assert spherepack.magic.RadialKind.G.value == 'G'\n"
        "assert 'spherepack.magic' in sys.modules\n"
        "try:\n"
        "    spherepack.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert out == "module 'spherepack' has no attribute 'nope'\n"
