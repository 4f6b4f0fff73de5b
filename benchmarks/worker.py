"""One fresh benchmark process: a warm workload's set-up and rounds, or one traced cold check.

run.py starts it as ``python benchmarks/worker.py '<job as JSON>'`` with
``PYTHONPATH=<checkout>/src`` and reads the JSON object on the last line
of its standard output.  Nothing from the package is imported before the
``cli.import`` span, so that span pays what a fresh CLI process pays
(numpy included).

Spans are recorded here, around the calls the benchmark makes into each
module's public functions; the package itself is not instrumented.
"""

from __future__ import annotations

import time

T0_WALL = time.time()
T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import expect  # noqa: E402
import refclock  # noqa: E402
from spans import NULL, Tracer  # noqa: E402

# -- workload sizes (fixed; the seed only chooses values) -----------------------

SWEEP_RADII = 3000            # grid-sweep: g and g_hat radii per round, in [0, 6]
HANKEL_RADII = 2              # grid-sweep: hankel8 radii per round, in [0.7, 1.4]
MC_RADIUS = 5.0
MC_SAMPLES = 1 << 20          # mc-lattice: samples per finite_density_mc call
MC_THREADS = min(2, os.cpu_count() or 1)
SHELLS_MAX_NORM2 = 8          # enumerate_shells(8, with_vectors=True)
THETA_MAX_N = 10              # theta_coefficients(10), criterion 2

# -- exact series, in the call forms the CLI uses ------------------------------
#
# lru_cache keys on the call as written: psi_i_qseries() and
# psi_i_qseries(256) are two entries and two builds, and so are
# phi0_qseries() and phi0_qseries(50) (reached through form_qseries).  The
# traced sequences build exactly the entries the CLI builds, so series
# construction is timed in its own span; the cache-parity check after
# each traced cold check proves that nothing was left for the CLI to build.

_EVALUATOR_SERIES = [("form_qseries", "PHI0"), ("form_qseries", "PSI_S")]
_AXIS_SERIES = [("form_qseries", "PHI0"), ("phi0_anomaly_qseries",),
                ("e4sq_over_delta_qseries",), ("psi_i_qseries",), ("_b_minus_psi_i_q4",),
                ("_b_plus_psi_i_q4",), ("form_qseries", "PSI_S")]
SERIES = {
    "forms identities": [("eisenstein_qseries", 2, 50), ("eisenstein_qseries", 4, 50),
                         ("eisenstein_qseries", 6, 50), ("theta_qseries", "00", 200),
                         ("theta_qseries", "10", 200), ("theta_qseries", "01", 200),
                         ("form_qseries", "THETA00"), ("form_qseries", "THETA10"),
                         ("form_qseries", "THETA01"), ("delta_qseries", 50),
                         ("eta_product_qseries", 50)],
    "bound": _EVALUATOR_SERIES,
    "magic verify": _EVALUATOR_SERIES + [("phi0_qseries",), ("phi0_anomaly_qseries",),
                                         ("e4sq_over_delta_qseries",), ("psi_i_qseries",)],
    "axis check": _AXIS_SERIES,
    "grid-sweep": _EVALUATOR_SERIES + _AXIS_SERIES,
}


def _call_series(forms, call: tuple) -> str:
    """Make one call from SERIES against the forms module; returns it as written."""
    name, *args = call
    if name == "form_qseries":
        forms.form_qseries(forms.FormId[args[0]])
        return f"form_qseries(FormId.{args[0]})"
    getattr(forms, name)(*args)
    return f"{name}({', '.join(map(repr, args))})"


def _cached_functions(modules) -> list:
    return [obj for mod in modules for obj in vars(mod).values()
            if callable(obj) and hasattr(obj, "cache_info")
            and getattr(obj, "__module__", "") == mod.__name__]


def cache_misses(modules) -> int:
    """Sum of cache_info().misses over the lru-cached functions of the modules."""
    return sum(fn.cache_info().misses for fn in _cached_functions(modules))


def build_series(tr, forms, calls: list[tuple]) -> dict[str, int]:
    """Build the listed series inside one span; returns the builds each call caused."""
    caused = {}
    with tr.span("forms.series_build"):
        for call in dict.fromkeys(calls):
            before = cache_misses([forms])
            label = _call_series(forms, call)
            caused[label] = cache_misses([forms]) - before
    tr.count("forms.series_builds", sum(caused.values()))
    return caused


def _import_package(tr):
    with tr.span("cli.import"):
        import spherepack.cli
    return spherepack.cli


# -- traced cold checks: the CLI handlers' calls, one span per layer -------------

def _traced_forms_identities(tr, sp, config):
    order = config.series_order
    with tr.span("forms.identities"):
        ram = sp.forms.check_ramanujan(order)
        jac = sp.forms.check_jacobi(max(8, 4 * order), samples=(0.3 + 0.9j,))
        delta_ok = sp.forms.delta_qseries(order) == sp.forms.eta_product_qseries(order)
    return ram.all_zero and jac.all_zero and delta_ok


def _evaluator(tr, sp, config):
    with tr.span("magic.evaluator_build"):
        ev = sp.magic.default_evaluator(config.quadrature)
    tr.count("magic.kernel_nodes", len(ev._nodes_a) + len(ev._nodes_b))
    return ev


def _sweep_bytes(ev, radii: int, calls: int) -> int:
    """Computed, not measured: each a_values/b_values call materialises the
    complex128 outer product and its exponential, radii x nodes each."""
    nodes = len(ev._nodes_a)
    return calls * 2 * radii * nodes * 16


def _traced_bound(tr, sp, config):
    ev = _evaluator(tr, sp, config)
    with tr.span("cohn_elkies.verify"):
        report = sp.cohn_elkies.verify_magic_ce(ev)
    # verify_magic_ce sweeps g and g_hat (four a/b sweeps) inside the span above
    tr.count("magic.sweep_bytes", _sweep_bytes(ev, len(report.grid), 4))
    with tr.span("packing.density"):
        sp.packing.periodic_density(sp.packing.e8_packing_spec())
    return report.pass_


def _traced_magic_verify(tr, sp, config):
    ev = _evaluator(tr, sp, config)
    with tr.span("magic.point_eval"):
        a0 = abs(ev.eval_a(0.0))
        contour = {r: (ev.eval_a(r), ev.eval_b(r)) for r in (1.5, 2.0, 3.0)}
        worst_zero = max(abs(ev.eval_g((2.0 * n) ** 0.5)) for n in (1, 2, 3))
        g0, b0 = ev.eval_g(0.0), abs(ev.eval_b(0.0))
        ev.eval_g_hat(0.0)
    with tr.span("magic.oracle"):
        worst = 0.0
        for r, (ca, cb) in contour.items():
            worst = max(worst, abs(ca - ev.eval_a_propagated(r)) / max(abs(ca), a0),
                        abs(cb - ev.eval_b_propagated(r)) / max(abs(cb), a0))
    return (worst < expect.REPR_TOL and worst_zero < expect.ZERO_TOL * abs(g0)
            and b0 < 1e-6 * a0)


def _traced_axis_check(tr, sp, config):
    axis = sp.axis
    grid = axis.log_grid(config.axis_grid_lo, config.axis_grid_hi, config.axis_grid_n)
    with tr.span("axis.verify_direct"):
        direct = axis.verify_inequalities(grid, axis.Eq2Convention.DIRECT)
    with tr.span("axis.verify_sweighted"):
        weighted = axis.verify_inequalities(grid, axis.Eq2Convention.S_WEIGHTED)
    real_grid = axis.log_grid(0.1, 10.0, 25)
    with tr.span("axis.realness"):
        axis.check_realness(sp.forms.FormId.PHI0, real_grid)
        axis.check_realness(sp.forms.FormId.PSI_S, real_grid)
    tr.count("axis.points", direct.grid_size + weighted.grid_size + 2 * len(real_grid))
    return not expect.check_axis(weighted, direct)


TRACED = {
    "forms identities": _traced_forms_identities,
    "bound": _traced_bound,
    "magic verify": _traced_magic_verify,
    "axis check": _traced_axis_check,
}


def cold_trace(job: dict) -> dict:
    """One paper check, traced, then the same check through cli.run for parity."""
    command = job["command"]
    name = "axis check" if command.startswith("axis check") else command
    tr = Tracer()
    tr.round = job["round"]
    cli = _import_package(tr)
    import spherepack as sp
    modules = [m for key, m in sys.modules.items() if key.startswith("spherepack.")]
    caused = build_series(tr, sp.forms, SERIES[name])
    traced_ok = TRACED[name](tr, sp, cli.RunConfig())
    end = time.perf_counter()
    end_wall = time.time()

    before = cache_misses(modules)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(command.split())
    new_misses = cache_misses(modules) - before
    fails = expect.check_cli_report(command, rc, out.getvalue())
    if not traced_ok:
        fails.append(f"{command}: traced sequence disagrees with its verdict")
    if new_misses:
        fails.append(f"{command}: cli.run built {new_misses} cache entries the trace did not")
    return {"spans": _relative(tr.spans), "counts": tr.counts, "fails": fails,
            "series_calls": caused, "series_builds": cache_misses([sp.forms]),
            "parity_new_misses": new_misses, "end": end - T0, "end_wall": end_wall}


# -- warm workloads --------------------------------------------------------------

class GridSweep:
    """Warm evaluation: g/g_hat sweep, the criterion-8 Hankel check, both axis conventions."""

    def __init__(self, tr):
        _import_package(tr)
        import spherepack as sp
        from spherepack.quadrature import QuadratureConfig

        import numpy as np

        self.np, self.sp = np, sp
        self.series_calls = build_series(tr, sp.forms, SERIES["grid-sweep"])
        with tr.span("magic.evaluator_build"):
            self.ev = sp.magic.default_evaluator(QuadratureConfig())
        tr.count("magic.kernel_nodes", len(self.ev._nodes_a) + len(self.ev._nodes_b))
        self.g0 = self.ev.eval_g(0.0)
        self.table_grid = np.arange(0.0, 20.0001, 0.02)
        self.axis_grid = sp.axis.log_grid(0.05, 20.0, 400)
        scale_r = expect.HANKEL_SCALE_RADIUS
        self.scale_a = self.ev.eval_a(scale_r).imag
        self.scale_b = -self.ev.eval_b(scale_r).imag

    def round(self, tr, rng) -> tuple[list[list[str]], int, float]:
        np, magic, axis = self.np, self.sp.magic, self.sp.axis
        ev = self.ev
        with tr.span("bench.inputs"):
            radii = np.sort(rng.uniform(0.0, 6.0, SWEEP_RADII))
            hankel_r = rng.uniform(0.7, 1.4, HANKEL_RADII)
        t = time.perf_counter()
        with tr.span("magic.sweep"):
            g = ev.g_values(radii)
            g_hat = ev.g_hat_values(radii)
        sweep_s = time.perf_counter() - t
        tr.count("magic.sweep_bytes", _sweep_bytes(ev, SWEEP_RADII, 4))
        with tr.span("magic.tabulate"):
            table_a = magic.tabulate_radial(magic.RadialKind.A, self.table_grid, ev)
            table_b = magic.tabulate_radial(magic.RadialKind.B, self.table_grid, ev)
        with tr.span("magic.hankel"):
            pairs = []
            for r in hankel_r:
                pairs.append((magic.hankel8(table_a, r), ev.eval_a(r).imag, self.scale_a))
                pairs.append((magic.hankel8(table_b, r), -ev.eval_b(r).imag, self.scale_b))
        with tr.span("axis.verify_sweighted"):
            weighted = axis.verify_inequalities(self.axis_grid, axis.Eq2Convention.S_WEIGHTED)
        with tr.span("axis.verify_direct"):
            direct = axis.verify_inequalities(self.axis_grid, axis.Eq2Convention.DIRECT)
        tr.count("axis.points", weighted.grid_size + direct.grid_size)
        fails = [expect.check_ce_sweep(radii, g, g_hat, self.g0),
                 expect.check_hankel(pairs),
                 expect.check_axis(weighted, direct)]
        return fails, SWEEP_RADII, sweep_s


class McLattice:
    """Warm Monte-Carlo density on 1 and 2 threads, then exact shell enumeration."""

    def __init__(self, tr):
        _import_package(tr)
        import spherepack as sp

        self.sp = sp
        self.series_calls = {}
        tr.count("forms.series_builds", 0)
        self.spec = sp.packing.e8_packing_spec()

    def round(self, tr, rng) -> tuple[list[list[str]], int, float]:
        packing, lattice = self.sp.packing, self.sp.lattice
        seed = int(rng.integers(0, 2 ** 31))
        t = time.perf_counter()
        with tr.span("packing.mc"):
            single = packing.finite_density_mc(self.spec, MC_RADIUS, MC_SAMPLES, seed=seed,
                                               threads=1)
        mc_s = time.perf_counter() - t
        with tr.span("packing.mc_threads"):
            threaded = packing.finite_density_mc(self.spec, MC_RADIUS, MC_SAMPLES, seed=seed,
                                                 threads=MC_THREADS)
        with tr.span("lattice.enumerate"):
            shells = lattice.enumerate_shells(SHELLS_MAX_NORM2, with_vectors=True)
        with tr.span("lattice.theta"):
            theta = lattice.theta_coefficients(THETA_MAX_N)
        fails = [expect.check_mc(single, threaded),
                 expect.check_shells(shells, SHELLS_MAX_NORM2),
                 expect.check_theta(theta)]
        self._last_seed = seed
        return fails, MC_SAMPLES, mc_s

    def decode_probe(self, tr):
        """decode_batch alone, on the round's points in the sampler's block size."""
        packing, lattice = self.sp.packing, self.sp.lattice
        block = packing._BLOCK
        for start in range(0, MC_SAMPLES, block):
            count = min(block, MC_SAMPLES - start)
            with tr.span("bench.decode_inputs"):
                pts = packing._sample_block(self._last_seed, start, count, MC_RADIUS)
            with tr.span("lattice.decode"):
                lattice.decode_batch(pts)
        tr.count("lattice.decode_points", MC_SAMPLES)


WORKLOADS = {"grid-sweep": GridSweep, "mc-lattice": McLattice}


def warm(job: dict) -> dict:
    """Set up once, then rounds for job['seconds']; traced jobs alternate traced and untraced rounds."""
    traced = job["trace"]
    tr = Tracer() if traced else NULL
    work = WORKLOADS[job["workload"]](tr)
    import numpy as np

    rng = np.random.default_rng([job["seed"], job["index"]])
    fails: list[str] = []   # the first message of each failed operation
    attempted = 0

    def run_round(tracer):
        nonlocal attempted
        per_op, samples, step_s = work.round(tracer, rng)
        attempted += len(per_op)
        fails.extend(op[0] for op in per_op if op)
        return samples, step_s

    run_round(tr)                                      # warm-up, part of set-up
    ready = time.perf_counter()
    ready_wall = time.time()
    refs = [refclock.burst()]
    rounds, traced_rounds, throughput, traced_windows = [], [], [], {}
    i = 0
    while i == 0 or time.perf_counter() - ready < job["seconds"]:
        is_traced = traced and i % 2 == 0
        tracer = tr if is_traced else NULL
        if is_traced:
            tr.round = f"w{job['index']}.r{i}"
        t, t_wall = time.perf_counter(), time.time()
        with tracer.span("round"):
            samples, step_s = run_round(tracer)
        seconds = time.perf_counter() - t
        part = [seconds, t_wall, t_wall + seconds]
        if is_traced:
            traced_rounds.append([part])
            traced_windows[tr.round] = part[1:]
            if isinstance(work, McLattice):
                work.decode_probe(tr)
        else:
            rounds.append([part])
            # the step's own time, normalised by the bursts around its round
            throughput.append([samples, [[step_s, t_wall, t_wall + seconds]]])
        refs.append(refclock.burst())
        i += 1
    return {"rounds": rounds, "traced_rounds": traced_rounds, "throughput": throughput,
            "refs": refs, "traced_windows": traced_windows,
            "attempted": attempted, "fails": fails,
            "ready_wall": ready_wall, "ready": ready - T0,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "series_calls": work.series_calls,
            "series_builds": cache_misses([work.sp.forms]),
            "spans": _relative(tr.spans) if traced else [],
            "counts": tr.counts if traced else []}


def _relative(spans: list[dict]) -> list[dict]:
    """Span times in seconds since this process's first line."""
    return [dict(s, start=s["start"] - T0, end=s["end"] - T0) for s in spans]


def main() -> None:
    job = json.loads(sys.argv[1])
    src = os.path.join(job["root"], "src")
    result = cold_trace(job) if job["mode"] == "cold-trace" else warm(job)
    import spherepack

    if not os.path.abspath(spherepack.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"spherepack imported from {spherepack.__file__}, not {src}")
    result["t0_wall"] = T0_WALL
    print(json.dumps(result))


if __name__ == "__main__":
    main()
