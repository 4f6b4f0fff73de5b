"""Correctness expectations of the benchmark, one function per operation.

The thresholds are the acceptance suite's (tests/test_acceptance.py).
Every check returns a list of failure messages; an empty list means the
operation passed.  The benchmark counts an operation with any message as
failed and never raises, so a wrong answer shows up in ``failed`` and
``fail_ratio`` instead of stopping the run.

Expected values are computed here from first principles (pi^4/384, the
E4 coefficients 240*sigma_3(n)), not read back from the package.
"""

from __future__ import annotations

import json
import math

E8_DENSITY = math.pi ** 4 / 384.0
SQRT2 = math.sqrt(2.0)

BOUND_TOL = 1e-6            # |bound - pi^4/384|, criterion 7
REPR_TOL = 1e-6             # contour vs collapsed integral, criterion 4
ZERO_TOL = 1e-6             # |g(sqrt(2n))| / |g(0)|, criterion 5
CE_TOL = 1e-7               # sign tolerance relative to g(0), criterion 6
JACOBI_NUMERIC_TOL = 1e-12  # the CLI's own numeric Jacobi threshold
HANKEL_TOL = 0.01           # radial Fourier transform, criterion 8
#: criterion 8 tests at r = 0.8 and 1.3; at seeded radii the relative
#: error is taken against max(|want|, |want at this radius|), so a radius
#: that lands on a zero of the profile is tested at criterion 8's scale
#: instead of dividing by (nearly) zero
HANKEL_SCALE_RADIUS = 1.3
MC_SIGMAS = 5.0             # |estimate - pi^4/384| in standard errors


def e4_coefficients(max_n: int) -> list[int]:
    """1, 240*sigma_3(1), ..., 240*sigma_3(max_n): the E8 theta numbers."""
    return [1] + [240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
                  for n in range(1, max_n + 1)]


def _fail(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def check_cli_report(command: str, returncode: int, stdout: str) -> list[str]:
    """A cold `python -m spherepack <command>` run: exit 0, pass true, key results."""
    if returncode != 0:
        return [f"{command}: exit code {returncode}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"{command}: stdout is not a JSON report"]
    if report.get("pass") is not True:
        return [f"{command}: pass is not true"]
    res = report.get("results", {})
    try:
        if command == "forms identities":
            return (_fail(res["ramanujan_zero"] and res["jacobi_zero"]
                          and res["delta_matches_eta_product"], "identities not exactly zero")
                    + _fail(res["jacobi_numeric_residual"] < JACOBI_NUMERIC_TOL,
                            "Jacobi numeric residual"))
        if command == "bound":
            g0 = abs(res["g0"])
            return (_fail(abs(res["bound"] - E8_DENSITY) < BOUND_TOL, "bound - pi^4/384")
                    + _fail(res["ce2_max_violation"] <= CE_TOL * g0, "g > 0 beyond sqrt(2)")
                    + _fail(res["ce3_min_value"] >= -CE_TOL * g0, "g_hat < 0"))
        if command == "magic verify":
            return (_fail(res["max_rel_error"] < REPR_TOL, "representation consistency")
                    + _fail(res["max_zero_value"] < ZERO_TOL * abs(res["g0"]), "g at sqrt(2n)"))
        if command.startswith("axis check"):
            conv = res["conventions"]
            return (_fail(conv["sweighted"]["pass"], "S-weighted convention fails")
                    + _fail(not conv["direct"]["pass"], "direct convention passes"))
    except (KeyError, TypeError) as exc:
        return [f"{command}: report lacks {exc}"]
    return [f"{command}: no expectation for this command"]


def check_ce_sweep(radii, g, g_hat, g0: float) -> list[str]:
    """Criterion 6 on a radius grid: g <= tol beyond sqrt(2), g_hat >= -tol everywhere."""
    tol = CE_TOL * abs(g0)
    outside = radii > SQRT2 * (1 + 1e-6)
    worst_g = float(g[outside].max()) if outside.any() else -math.inf
    return (_fail(worst_g <= tol, f"g = {worst_g:.3g} beyond sqrt(2)")
            + _fail(float(g_hat.min()) >= -tol, f"g_hat = {float(g_hat.min()):.3g}"))


def check_hankel(pairs: list[tuple[float, float, float]]) -> list[str]:
    """Criterion 8: (transform, want, scale) triples agree to HANKEL_TOL."""
    msgs = []
    for got, want, scale in pairs:
        err = abs(got - want) / max(abs(want), abs(scale))
        msgs += _fail(err < HANKEL_TOL, f"Hankel error {err:.3g} at want {want:.4g}")
    return msgs


def check_axis(sweighted, direct) -> list[str]:
    """Criterion 11: the S-weighted reading holds, the direct one fails."""
    return (_fail(sweighted.pass_ and sweighted.min_plus > 0 and sweighted.min_minus > 0,
                  "S-weighted combinations not positive")
            + _fail(not direct.pass_, "direct convention passes"))


def check_mc(single, threaded) -> list[str]:
    """Bitwise thread invariance and agreement with pi^4/384 within MC_SIGMAS."""
    dev = abs(single.value - E8_DENSITY)
    return (_fail(single.value == threaded.value, "estimate depends on the thread count")
            + _fail(dev < MC_SIGMAS * single.stderr,
                    f"estimate {dev / single.stderr:.2f} stderr from pi^4/384"))


def check_shells(shells, max_norm2: int) -> list[str]:
    """Explicit shells up to max_norm2 match 240*sigma_3 exactly, vectors included."""
    want = e4_coefficients(max_norm2 // 2)
    got = {s.norm2: s for s in shells}
    msgs = []
    for n in range(1, max_norm2 // 2 + 1):
        shell = got.get(2 * n)
        count = shell.count if shell is not None else 0
        vectors = len(shell.vectors) if shell is not None else 0
        msgs += _fail(count == want[n] == vectors, f"shell {2 * n}: {count}/{vectors} vectors")
    return msgs + _fail(set(got) <= set(range(2, max_norm2 + 1, 2)), "odd or extra shells")


def check_theta(theta: list[int]) -> list[str]:
    return _fail(theta == e4_coefficients(len(theta) - 1), "theta numbers differ from E4")
