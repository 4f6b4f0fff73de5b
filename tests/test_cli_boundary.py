"""CLI boundary property: any floats, ints and grid strings give exit 0, 1 or 2,
never a traceback, and never ``pass: true`` (or, for a csv table, exit 0)
beside a non-finite result.

Sizes that set the work (Monte-Carlo samples, threads, grid points, series
order, shell norm) are capped so that no example starts a large run; the
values that only steer it (radii, coordinates, grid ends, seeds) are free,
NaN and infinities included.
"""

import json
import math

from hypothesis import HealthCheck, example, given, settings, strategies as st

from spherepack.cli import run

#: non-finite floats are rendered as the strings "nan", "inf" and "-inf"
_NON_FINITE = {"nan", "inf", "-inf"}

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e300, 5e-324]))
ints = st.one_of(st.integers(), st.integers(-3, 3))


def _grid(n_max: int):
    spec = st.builds(lambda lo, hi, n: f"{lo!r}:{hi!r}:{n}", floats, floats,
                     st.integers(-2, n_max))
    return st.one_of(spec, st.text(max_size=12))


def _opt(flag: str, values):
    """Maybe ``--flag=value``: the = form keeps a value such as -inf from
    reading as an option."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{flag}={v}"]))


def _command(words, *options):
    return st.tuples(*options).map(lambda parts: list(words) + [a for p in parts for a in p])


_COMMON = (_opt("format", st.sampled_from(["json", "csv", "xml"])),)

argvs = st.one_of(
    _command(["forms", "eval"], _opt("form", st.sampled_from(["E4", "Phi0", "PsiS", "Theta10", "E5"])),
             _opt("re", floats), _opt("im", floats), *_COMMON),
    _command(["forms", "identities"], _opt("order", st.integers(-3, 24)), *_COMMON),
    _command(["lattice", "shells"], _opt("max-norm2", st.integers(-3, 6)), *_COMMON),
    _command(["lattice", "decode"],
             _opt("point", st.lists(floats, min_size=7, max_size=9).map(
                 lambda xs: ",".join(map(repr, xs)))), *_COMMON),
    _command(["lattice", "info"], *_COMMON),
    _command(["packing", "density"], *_COMMON),
    _command(["packing", "mc"], _opt("radius", floats),
             st.integers(-2, 4096).map(lambda n: [f"--samples={n}"]),
             _opt("seed", ints), _opt("threads", st.integers(-2, 2)), *_COMMON),
    _command(["magic", "eval"], _opt("r", floats), *_COMMON),
    _command(["magic", "table"], _opt("which", st.sampled_from(["A", "B", "G", "GHat", "H"])),
             _opt("grid", _grid(64)), *_COMMON),
    _command(["magic", "verify"], *_COMMON),
    _command(["bound"], *_COMMON),
    _command(["axis", "check"], _opt("convention", st.sampled_from(["direct", "sweighted", "both"])),
             _opt("grid", _grid(48)), *_COMMON),
)


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, str):
        return value in _NON_FINITE
    if isinstance(value, dict):
        return any(map(_non_finite, value.values()))
    if isinstance(value, list):
        return any(map(_non_finite, value))
    return False


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(argv=argvs)
# found by this property: a standard error of 0 gave an infinite sigma count,
# and a radius whose square overflows gave NaN values, both beside pass: true
@example(argv=["packing", "mc", "--samples=1"])
@example(argv=["magic", "eval", "--r=1e+300"])
@example(argv=["magic", "table", "--which=G", "--grid=-1e+308:1e+308:5"])
def test_cli_boundary_property(argv, capsys, monkeypatch):
    monkeypatch.delenv("SPHEREPACK_THREADS", raising=False)
    code = run(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err, argv
    if code != 2 and out.startswith("{"):
        report = json.loads(out)
        assert not (report["pass"] and _non_finite(report["results"])), (argv, out)
    elif code == 0:
        # a csv table has no pass field; exit 0 is its pass
        cells = [c for line in out.splitlines()[1:] for c in line.split(",")]
        assert not _non_finite(cells), (argv, out)
