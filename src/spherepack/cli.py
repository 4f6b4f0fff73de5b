"""Command-line surface: every check as a reproducible JSON/CSV report.

Grammar (long-form flags only):

    spherepack forms eval --form E4 --re 0 --im 1
    spherepack forms identities [--order N]
    spherepack lattice shells --max-norm2 M [--format csv]
    spherepack lattice decode --point x1,...,x8
    spherepack lattice info
    spherepack packing density
    spherepack packing mc [--radius R] [--samples N] [--seed S] [--threads T]
    spherepack magic eval --r R
    spherepack magic table --which A|B|G|GHat --grid lo:hi:n [--format csv]
    spherepack magic verify
    spherepack bound
    spherepack axis check [--convention direct|sweighted|both] [--grid lo:hi:n]

Common flags: --config FILE, --out FILE, --format json|csv.  --order,
--seed, --threads and the axis check's --grid (logarithmically spaced) set
config fields, and only the commands that read those fields take them.
--threads is the number of Monte-Carlo worker processes (0: the usable
CPUs, at most 8); SPHEREPACK_THREADS applies to packing mc alone, under
--threads.

Reports share one envelope: {"command", "config", "results", "pass",
"wall_time_ms"}, whose "config" holds the config fields the command read.
All floats are printed with 17 significant digits and keys are sorted, so
identical invocations produce byte-identical output except for the timing
field.  Exit code 0 means the envelope passed, 1 a failed check, 2 a usage
or configuration error.

A cold process loads only what its command runs: this module imports
``errors``, ``forms`` (with ``qseries``) and ``quadrature`` at the top, and
each ``_cmd_*`` handler imports the rest of the library it calls.  None of
the modules imported at the top loads numpy, so ``forms identities``,
``forms eval``, ``--help`` and every usage error run on the standard
library alone; the other commands load numpy with the module they call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, NamedTuple

from .errors import ConfigError, ResourceGuard, SpherepackError
from .forms import (FormId, check_jacobi, check_ramanujan, delta_qseries, eisenstein_qseries,
                    eta_product_qseries, form_qseries)
from .qseries import ETA_MIN
from .quadrature import QuadratureConfig


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

#: caps on --order (series_order) and on the n of --grid lo:hi:n (axis_grid_n),
#: sized by timing: order 1,000 takes about 2 s, a 100,000-row magic table 1.4 s
MAX_SERIES_ORDER = 1000
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class RunConfig:
    series_order: int = 50
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    axis_grid_lo: float = 0.05
    axis_grid_hi: float = 20.0
    axis_grid_n: int = 400
    seed: int = 0
    threads: int = 0

    def __post_init__(self):
        for name in ("series_order", "axis_grid_n", "seed", "threads"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("axis_grid_lo", "axis_grid_hi"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not 2 <= self.series_order <= MAX_SERIES_ORDER:
            raise ConfigError(f"series_order must be at least 2 and at most the cap "
                              f"{MAX_SERIES_ORDER}, got {self.series_order}")
        if (not (0 < self.axis_grid_lo < self.axis_grid_hi < math.inf)
                or not 2 <= self.axis_grid_n <= MAX_GRID_POINTS):
            raise ConfigError("axis grid must satisfy 0 < lo < hi < inf and 2 <= n <= the cap "
                              f"{MAX_GRID_POINTS}")
        if self.threads < 0:
            raise ConfigError("threads must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        _reject_unknown(cls, data, "config")
        quad_data = data.get("quadrature", {})
        if not isinstance(quad_data, dict):
            raise ConfigError("quadrature must be an object")
        _reject_unknown(QuadratureConfig, quad_data, "quadrature")
        try:
            quad = QuadratureConfig(**quad_data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad quadrature config: {exc}") from exc
        rest = {k: v for k, v in data.items() if k != "quadrature"}
        try:
            return cls(quadrature=quad, **rest)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc


def _reject_unknown(cls, data: dict, label: str) -> None:
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return '"%s"' % x
    return format(float(x), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_to_json(obj[k], indent + 1)}' for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    np = sys.modules.get("numpy")   # a numpy scalar exists only once numpy is loaded
    if np is not None and isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None or isinstance(obj, (bool, int)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    return json.dumps(str(obj))


def render_report(command: str, config: dict, results: dict, passed: bool,
                  wall_ms: int) -> str:
    envelope = {
        "command": command,
        "config": config,
        "results": results,
        "pass": passed,
        "wall_time_ms": wall_ms,
    }
    return _to_json(envelope) + "\n"


def _csv_table(header: list[str], rows: list[list]) -> str:
    cells = [header] + [[format(c, ".17g") if isinstance(c, float) else str(c) for c in row]
                        for row in rows]
    return "".join(",".join(line) + "\n" for line in cells)


# ---------------------------------------------------------------------------
# command implementations: each returns (results dict, pass flag, csv or None)
# ---------------------------------------------------------------------------

def _cmd_forms_eval(args, config: RunConfig):
    try:
        form = FormId(args.form)
    except ValueError:
        valid = ", ".join(f.value for f in FormId)
        raise ConfigError(f"unknown form {args.form!r}; choose from {valid}")
    _require_finite("--re", args.re)
    _require_finite("--im", args.im)
    if args.im < ETA_MIN:
        raise ConfigError(f"--im must be at least ETA_MIN = {ETA_MIN}; "
                          "direct series evaluation is refused below it")
    series = form_qseries(form)
    value = series.eval(complex(args.re, args.im))
    results = {
        "form": form.value,
        "tau": {"re": args.re, "im": args.im},
        "value": {"re": value.real, "im": value.imag},
        "series_order": series.order,
        "nome": series.nome.value,
    }
    return results, True, None


def _cmd_forms_identities(args, config: RunConfig):
    order = config.series_order
    ram = check_ramanujan(order)
    jac = check_jacobi(max(8, 4 * order), samples=(0.3 + 0.9j,))
    delta_ok = delta_qseries(order) == eta_product_qseries(order)
    results = {
        "order": order,
        "ramanujan_zero": ram.all_zero,
        "jacobi_zero": jac.all_zero,
        "jacobi_numeric_residual": max(jac.numeric_residuals),
        "delta_matches_eta_product": delta_ok,
    }
    passed = ram.all_zero and jac.all_zero and delta_ok and (
        max(jac.numeric_residuals) < 1e-12)
    return results, passed, None


def _cmd_lattice_shells(args, config: RunConfig):
    from .lattice import enumerate_shells
    shells = enumerate_shells(args.max_norm2)
    results = {
        "max_norm2": args.max_norm2,
        "shells": [{"norm2": s.norm2, "count": s.count} for s in shells],
        "total_vectors": sum(s.count for s in shells),
    }
    csv = _csv_table(["norm2", "count"], [[s.norm2, s.count] for s in shells])
    return results, True, csv


def _cmd_lattice_decode(args, config: RunConfig):
    from .lattice import nearest_point
    try:
        coords = [float(x) for x in args.point.split(",")]
    except ValueError:
        raise ConfigError(f"--point expects 8 comma-separated numbers, got {args.point!r}")
    if len(coords) != 8:
        raise ConfigError("--point expects exactly 8 coordinates")
    vector, dist = nearest_point(coords)
    results = {
        "point": coords,
        "nearest": [h / 2.0 for h in vector.half_coords],
        "half_coords": list(vector.half_coords),
        "distance": dist,
        "norm2": vector.norm2(),
    }
    return results, True, None


def _cmd_lattice_info(args, config: RunConfig):
    from .lattice import covolume, e8_basis, min_norm, theta_coefficients
    basis = e8_basis()
    theta = theta_coefficients(10)
    e4 = eisenstein_qseries(4, 10)
    matches = theta == [int(e4.coefficient(n)) for n in range(11)]
    results = {
        "min_norm": min_norm(),
        "covolume": covolume(),
        "determinant": float(basis.determinant()),
        "gram_diagonal": [int(basis.gram()[i][i]) for i in range(8)],
        "theta_coefficients": theta,
        "theta_matches_eisenstein": matches,
    }
    return results, matches, None


def _cmd_packing_density(args, config: RunConfig):
    from .packing import E8_DENSITY, e8_packing_spec, periodic_density
    value = periodic_density(e8_packing_spec())
    results = {
        "value": value,
        "target": E8_DENSITY,
        "abs_error": abs(value - E8_DENSITY),
    }
    return results, abs(value - E8_DENSITY) < 1e-12, None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_packing_mc(args, config: RunConfig):
    from .packing import E8_DENSITY, e8_packing_spec, finite_density_mc
    _require_finite("--radius", args.radius)
    est = finite_density_mc(e8_packing_spec(), radius=args.radius,
                            samples=args.samples, seed=config.seed,
                            threads=config.threads or min(_usable_cpus(), 8))
    dev = abs(est.value - E8_DENSITY)
    results = {
        "value": est.value,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "radius": est.radius,
        "threads": est.workers,
        # samples that the float32 pass left to the exact float64 recheck
        "rechecked": est.rechecked,
        "target": E8_DENSITY,
        "abs_deviation": dev,
        # undefined (null) when every sample hit or every sample missed
        "deviation_sigmas": dev / est.stderr if est.stderr > 0 else None,
    }
    return results, True, None


def _cmd_magic_eval(args, config: RunConfig):
    from .magic import RadialKind, default_evaluator
    _require_finite("--r", args.r)
    if args.r < 0:
        raise ConfigError(f"--r must be nonnegative, got {args.r}")
    ev = default_evaluator(config.quadrature)
    a, b, g, g_hat = ev.values(tuple(RadialKind), [args.r])[:, 0].tolist()
    results = {
        "r": args.r,
        "a": {"re": 0.0, "im": a},
        "b": {"re": 0.0, "im": b},
        "g": g,
        "g_hat": g_hat,
    }
    return results, True, None


def _cmd_magic_table(args, config: RunConfig):
    from .magic import RadialKind, default_evaluator, tabulate_radial
    kind = {k.value.lower(): k for k in RadialKind}.get(args.which.lower())
    if kind is None:
        raise ConfigError(f"--which must be A, B, G or GHat, got {args.which!r}")
    lo, hi, n = _parse_grid(args.grid)
    if not (-math.inf < lo < hi < math.inf and 2 <= n <= MAX_GRID_POINTS):
        raise ConfigError(f"--grid needs finite lo < hi and 2 <= n <= the cap {MAX_GRID_POINTS}")
    grid = [lo + (hi - lo) * j / (n - 1) for j in range(n)]
    table = tabulate_radial(kind, grid, default_evaluator(config.quadrature))
    rows = list(zip(table.radii.tolist(), table.values.tolist()))
    results = {"which": kind.value, "rows": [{"r": r, "value": v} for r, v in rows]}
    csv = _csv_table(["r", "value"], rows)
    return results, True, csv


def _cmd_magic_verify(args, config: RunConfig):
    from .magic import RadialKind, default_evaluator
    ev = default_evaluator(config.quadrature)
    checked = (1.5, 2.0, 3.0)
    lattice = (1, 2, 3)
    radii = (0.0,) + checked + tuple(math.sqrt(2.0 * n) for n in lattice)
    a, b, g, g_hat = ev.values(tuple(RadialKind), radii).tolist()
    a0, b0, g0 = abs(a[0]), abs(b[0]), g[0]
    pa, pb = (ev.contour_values(form, checked).tolist() for form in (FormId.PHI0, FormId.PSI_S))
    consistency = {}
    worst_rel = 0.0
    for r, ca, cb, oa, ob in zip(checked, a[1:4], b[1:4], pa, pb):
        rel_a = abs(complex(0.0, ca) - oa) / max(abs(ca), a0)
        rel_b = abs(complex(0.0, cb) - ob) / max(abs(cb), a0)
        worst_rel = max(worst_rel, rel_a, rel_b)
        consistency[format(r, ".3g")] = {"a_rel_error": rel_a, "b_rel_error": rel_b}
    zeros = {str(n): abs(v) for n, v in zip(lattice, g[4:])}
    worst_zero = max(zeros.values())
    results = {
        "representation_consistency": consistency,
        "max_rel_error": worst_rel,
        "g_zero_values": zeros,
        "max_zero_value": worst_zero,
        "g0": g0,
        "ghat0": g_hat[0],
        "b0_over_a0": b0 / a0,
    }
    passed = (worst_rel < 1e-6 and worst_zero < 1e-6 * abs(g0) and b0 < 1e-6 * a0)
    return results, passed, None


def _cmd_bound(args, config: RunConfig):
    from .cohn_elkies import verify_magic_ce
    from .magic import default_evaluator
    from .packing import e8_packing_spec, periodic_density
    report = verify_magic_ce(default_evaluator(config.quadrature))
    results = dict(report.as_dict(), lattice_density=periodic_density(e8_packing_spec()),
                   bound_minus_target=report.bound - report.target)
    return results, report.pass_, None


def _cmd_axis_check(args, config: RunConfig):
    from .axis import Eq2Convention, log_grid, verify_inequalities
    grid = log_grid(config.axis_grid_lo, config.axis_grid_hi, config.axis_grid_n)
    which = args.convention
    names = ("direct", "sweighted") if which == "both" else (which,)
    reports = {n: verify_inequalities(grid, Eq2Convention(n)).as_dict() for n in names}
    results = {"conventions": reports, "certified_by": "sweighted"}
    return results, reports["direct" if which == "direct" else "sweighted"]["pass"], None


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _parse_grid(spec: str) -> tuple[float, float, int]:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        return float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ConfigError(f"--grid expects lo:hi:n, got {spec!r}")


def _require_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")


class _Command(NamedTuple):
    help: str
    handler: Callable
    reads: tuple = ()     # the RunConfig fields the handler reads: its config flags and echo
    csv: bool = False     # --format csv prints the handler's table
    flags: dict = {}      # the command's own flags: name -> add_argument keywords


_COMMON_FLAGS = {
    "--config": dict(help="JSON configuration file"),
    "--out": dict(help="write the report to this file instead of stdout"),
    "--format": dict(choices=["json", "csv"]),
}

_QUAD = ("quadrature",)
_GRID = ("axis_grid_lo", "axis_grid_hi", "axis_grid_n")

#: flags that override RunConfig fields: flag -> (its fields, add_argument keywords);
#: a command takes the flag when it reads the fields
_CONFIG_FLAGS = {
    "--order": (("series_order",), dict(type=int)),
    "--seed": (("seed",), dict(type=int)),
    "--threads": (("threads",), dict(type=int)),
    "--grid": (_GRID, dict(help="lo:hi:n, logarithmically spaced")),
}

_GROUP_HELP = {
    "forms": "q-expansions and identities",
    "lattice": "lattice geometry",
    "packing": "densities",
    "magic": "the certificate function",
    "axis": "imaginary-axis inequality checks",
}

#: every command, in the order the help lists them
_COMMANDS = {
    "forms eval": _Command("evaluate a form on the upper half-plane", _cmd_forms_eval, flags={
        "--form": dict(required=True, help="E2,E4,E6,Delta,Theta00,Theta01,Theta10,Phi0,PsiS"),
        "--re": dict(type=float, default=0.0), "--im": dict(type=float, default=1.0)}),
    "forms identities": _Command("exact residuals of the classical identities",
                                 _cmd_forms_identities, reads=("series_order",)),
    "lattice shells": _Command("shell counts up to a squared norm", _cmd_lattice_shells, csv=True,
                               flags={"--max-norm2": dict(type=int, required=True)}),
    "lattice decode": _Command("nearest lattice point", _cmd_lattice_decode, flags={
        "--point": dict(required=True, help="8 comma-separated coordinates")}),
    "lattice info": _Command("basis, covolume, theta coefficients", _cmd_lattice_info),
    "packing density": _Command("closed-form packing density", _cmd_packing_density),
    "packing mc": _Command("Monte-Carlo finite density", _cmd_packing_mc, reads=("seed", "threads"),
                           flags={"--radius": dict(type=float, default=5.0),
                                  "--samples": dict(type=int, default=2_000_000)}),
    "magic eval": _Command("a, b, g, g_hat at one radius", _cmd_magic_eval, reads=_QUAD,
                           flags={"--r": dict(type=float, required=True)}),
    "magic table": _Command("radial table of A, B, G or GHat", _cmd_magic_table, reads=_QUAD,
                            csv=True, flags={"--which": dict(required=True),
                                             "--grid": dict(required=True, help="lo:hi:n")}),
    "magic verify": _Command("representation consistency and zeros", _cmd_magic_verify,
                             reads=_QUAD),
    "bound": _Command("Cohn-Elkies verdict and bound value", _cmd_bound, reads=_QUAD),
    "axis check": _Command("two-sided positivity in both conventions", _cmd_axis_check,
                           reads=_GRID, flags={"--convention": dict(
                               choices=["direct", "sweighted", "both"], default="both")}),
}


def _config_flags(entry: _Command) -> dict:
    return {flag: spec for flag, spec in _CONFIG_FLAGS.items() if set(spec[0]) <= set(entry.reads)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherepack",
        description="Numerical verification toolkit for the E8 sphere packing bound")
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for command, entry in _COMMANDS.items():
        group, _, sub = command.partition(" ")
        if sub and group not in groups:
            groups[group] = top.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(
                dest="sub", required=True)
        p = (groups[group] if sub else top).add_parser(sub or group, help=entry.help)
        for flag, (_, keywords) in _config_flags(entry).items():
            p.add_argument(flag, **keywords)
        for flag, keywords in (entry.flags | _COMMON_FLAGS).items():
            p.add_argument(flag, **keywords)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse, execute, report.  Returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = args.group if not getattr(args, "sub", None) else f"{args.group} {args.sub}"
    t0 = time.perf_counter()
    entry = _COMMANDS[command]
    try:
        config = RunConfig()
        if args.config:
            with open(args.config) as fh:
                config = RunConfig.from_dict(json.load(fh))
        # precedence: flag, then SPHEREPACK_THREADS, then the config file
        overrides = {}
        if "threads" in entry.reads and os.environ.get("SPHEREPACK_THREADS"):
            try:
                overrides["threads"] = int(os.environ["SPHEREPACK_THREADS"])
            except ValueError:
                raise ConfigError("SPHEREPACK_THREADS must be an integer")
        for flag, (names, _) in _config_flags(entry).items():
            value = getattr(args, flag[2:])
            if value is not None:
                overrides.update(zip(names, _parse_grid(value) if flag == "--grid" else (value,)))
        config = replace(config, **overrides)
        if args.format == "csv" and not entry.csv:
            tables = sorted(name for name, e in _COMMANDS.items() if e.csv)
            raise ConfigError(f"csv output is only available for {tables}")
        results, passed, csv = entry.handler(args, config)
    except (ConfigError, OSError, ResourceGuard, ValueError) as exc:
        # ValueError, ResourceGuard: the library's argument checks and caps; bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpherepackError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
    if args.format == "csv":
        text = csv
    else:
        echo = {name: value for name, value in asdict(config).items() if name in entry.reads}
        text = render_report(command, echo, results, passed, wall_ms)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def main() -> None:
    sys.exit(run())
