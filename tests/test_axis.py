"""Axis kernels, the realness check and the two-sided inequality verification."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from spherepack import axis
from spherepack.axis import (
    AxisSamples,
    Eq2Convention,
    InequalityReport,
    check_realness,
    eq2_samples,
    log_grid,
    verify_inequalities,
)
from spherepack.cohn_elkies import verify_magic_ce
from spherepack.errors import TruncationInsufficient
from spherepack.forms import (
    FormId,
    e4sq_over_delta_qseries,
    phi0_anomaly_qseries,
    phi0_qseries,
    psi_i_qseries,
    psi_s_qseries,
)
from spherepack.magic import default_evaluator
from spherepack.qseries import Nome, QSeries
from spherepack.quadrature import QuadratureConfig, panel_nodes

PI = math.pi
W = 36.0 / PI ** 2
#: the CLI's default axis grid (RunConfig's axis_grid_lo, _hi and _n)
GRID = log_grid(0.05, 20.0, 400)
#: per convention, the ``kernels`` rows of the two functions whose weighted sum
#: and difference the convention's combinations are: phi0(it) and psi_s(it)
#: (DIRECT), W psi_i(it) and t^2 phi0(i/t) / W (S_WEIGHTED)
PAIRS = {Eq2Convention.DIRECT: (axis.KPHI, axis.KPSI),
         Eq2Convention.S_WEIGHTED: ((0.0, -W), (1.0 / W, 0.0))}


def pair(t, convention):
    """The convention's two functions at t, as ``eq2_samples`` reads its rows:
    from one ``kernels`` call of the pair's rows and the combinations' ones."""
    t = np.asarray(t, dtype=float)
    inverted, rows = axis._CONVENTIONS[convention]
    rows = PAIRS[convention] + rows
    values = (t * t) * axis.kernels(rows, 1.0 / t) if inverted else axis.kernels(rows, t)
    return values[:2]


def test_check_realness_on_log_grids():
    grid = log_grid(0.1, 10.0, 40)
    assert check_realness(FormId.PHI0, grid) < 1e-9
    assert check_realness(FormId.PSI_S, grid) < 1e-9
    # the other forms have no axis evaluator
    with pytest.raises(ValueError):
        check_realness(FormId.E2, [1.0])


def test_check_realness_rejects_nonpositive_grid():
    with pytest.raises(ValueError):
        check_realness(FormId.E4, [0.0, 1.0])


def test_log_grid_shape():
    g = log_grid(0.05, 20.0, 400)
    assert len(g) == 400
    assert g[0] == pytest.approx(0.05) and g[-1] == pytest.approx(20.0)
    assert all(b > a for a, b in zip(g, g[1:]))


def test_combo_algebra_identity():
    for conv in Eq2Convention:
        s = eq2_samples([0.3, 1.0, 2.0], conv)
        assert isinstance(s, AxisSamples) and s.t.shape == (3,)
        phi0, psi_s = pair(s.t, conv)
        recon_plus = phi0 + W * psi_s
        recon_minus = phi0 - W * psi_s
        scale = np.maximum(np.maximum(abs(phi0), W * abs(psi_s)), 1.0)
        assert np.all(abs(s.combo_plus - recon_plus) < 1e-8 * scale)
        assert np.all(abs(s.combo_minus - recon_minus) < 1e-8 * scale)
        # plus + minus = 2 phi0 to near machine accuracy
        assert np.all(abs((s.combo_plus + s.combo_minus) - 2.0 * phi0) <= 1e-11 * scale)


def test_direct_convention_fails():
    report = verify_inequalities(GRID, Eq2Convention.DIRECT)
    assert not report.pass_
    # every margin is already negative, so nothing is refined
    assert report.grid_size == 400 and report.refined is False
    # the failing side is the plus combination; the minus one holds
    assert report.min_plus < 0.0
    assert report.min_minus > 0.0


def test_sweighted_convention_passes():
    report = verify_inequalities(GRID, Eq2Convention.S_WEIGHTED)
    # no margin comes near 0 against the rounding scale, so nothing is refined
    assert report.pass_ and report.refined is False and not report.unresolved
    assert report.min_plus > 0.0
    assert report.min_minus > 0.0


#: the default grid's first point at or above t = 1, where K- is about 953
ABOVE_ONE = min(t for t in GRID if t >= 1.0)


def plant_in_k_minus(monkeypatch, shift: float) -> None:
    """Lower the constant term of the S-weighted upper table's K- row by
    ``shift``: the one patched entry moves K- above t = 1 alone, where it
    grows fastest, so a shift just short of K-(ABOVE_ONE) plants a dip one
    grid point wide.  The patch reads a copy of the cached table, so neither
    that cache nor the magic evaluator's sees it."""
    table = axis._table

    def patched(parts, rows):
        got, orders, low = table(parts, rows)
        if parts is axis._PARTS and rows == (axis.K_PLUS, axis.K_MINUS):
            got = got.copy()
            got[1, orders.index(0), -low] -= shift
        return got, orders, low

    monkeypatch.setattr(axis, "_table", patched)


def k_minus_above_one() -> float:
    return float(axis.kernels([axis.K_MINUS], [ABOVE_ONE])[0, 0])


def test_refinement_finds_a_planted_thin_dip(monkeypatch):
    # K- is planted 1 above 0 at one grid point, a margin near 1e-4: the grid
    # alone passes, and the refinement's points 0.5 % below it go negative
    plant_in_k_minus(monkeypatch, k_minus_above_one() - 1.0)
    assert np.all(eq2_samples(GRID, Eq2Convention.S_WEIGHTED).combo_minus > 0.0)
    report = verify_inequalities(GRID, Eq2Convention.S_WEIGHTED)
    assert report.refined is True and report.grid_size == 404
    assert not report.pass_ and report.min_minus < 0.0
    assert ABOVE_ONE * 0.99 < report.argmin_minus < ABOVE_ONE


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_refinement_does_not_depend_on_grid_order(order, monkeypatch):
    # the refinement points are bounded by the grid's extent, not its first and last entries
    grid = GRID[::-1] if order == "reversed" else np.random.default_rng(0).permutation(GRID)
    want = verify_inequalities(GRID, Eq2Convention.S_WEIGHTED)
    assert want.grid_size == 400 and want.refined is False
    # grid size, refinement, minima, argmins and verdict alike
    assert verify_inequalities(grid, Eq2Convention.S_WEIGHTED).as_dict() == want.as_dict()
    # the same on a grid that does refine, around the planted dip
    plant_in_k_minus(monkeypatch, k_minus_above_one() - 1.0)
    want = verify_inequalities(GRID, Eq2Convention.S_WEIGHTED)
    assert want.grid_size == 404 and want.refined is True
    assert verify_inequalities(grid, Eq2Convention.S_WEIGHTED).as_dict() == want.as_dict()


def test_a_sample_below_its_rounding_bound_is_unresolved(monkeypatch):
    # K- planted 1e-11 above 0, against a rounding bound near 5e-11 at a
    # one-point grid that nothing refines: every sample is positive, yet the
    # sign is not certified, so the verdict cannot pass
    plant_in_k_minus(monkeypatch, k_minus_above_one() - 1e-11)
    report = verify_inequalities([ABOVE_ONE], Eq2Convention.S_WEIGHTED)
    assert report.min_plus > 0.0 and report.min_minus > 0.0 and report.refined is False
    assert report.unresolved and report.rounding_bound >= 1.0
    assert not report.pass_ and report.as_dict()["pass"] is False
    monkeypatch.undo()
    clean = verify_inequalities([ABOVE_ONE], Eq2Convention.S_WEIGHTED)
    assert clean.pass_ and clean.rounding_bound < 1e-12


def test_margin_is_scale_free(monkeypatch):
    # a combination's margin is its value over the sum of its terms' absolute
    # values, so scaling its row by 1e6 scales both and leaves the margin
    want = eq2_samples(GRID, Eq2Convention.S_WEIGHTED)
    monkeypatch.setitem(axis._CONVENTIONS, Eq2Convention.S_WEIGHTED,
                        (False, (tuple(1e6 * f for f in axis.K_PLUS), axis.K_MINUS)))
    scaled = eq2_samples(GRID, Eq2Convention.S_WEIGHTED)
    assert np.allclose(scaled.combo_plus, 1e6 * want.combo_plus, rtol=1e-14, atol=0.0)
    for got, margin in zip(scaled.margins(), want.margins()):
        assert np.allclose(got, margin, rtol=1e-14, atol=0.0)
    assert (verify_inequalities(GRID, Eq2Convention.S_WEIGHTED).min_margin_plus
            == pytest.approx(float(want.margins()[0].min()), rel=1e-14))


def test_sweighted_single_point():
    report = verify_inequalities(grid=[1.0], convention=Eq2Convention.S_WEIGHTED)
    assert report.pass_


def test_direct_plus_combo_negative_at_both_ends():
    samples = eq2_samples([0.05, 20.0], Eq2Convention.DIRECT)
    assert np.all(samples.combo_plus < 0.0)


def test_sweighted_kernels_positive():
    w_psi_i, phi0_over_w = pair(log_grid(0.05, 20.0, 50), Eq2Convention.S_WEIGHTED)
    assert np.all(w_psi_i > 0.0)
    assert np.all(phi0_over_w > 0.0)


def test_convention_conclusion_matches_certificate():
    """The convention that passes here is the one whose positivity is the
    pointwise control for the certificate's grid checks."""
    axis_ok = verify_inequalities(GRID, Eq2Convention.S_WEIGHTED).pass_
    ce = verify_magic_ce(default_evaluator(QuadratureConfig()))
    assert axis_ok and ce.pass_


def test_report_is_serializable():
    report = verify_inequalities(grid=log_grid(0.1, 10.0, 30),
                                 convention=Eq2Convention.S_WEIGHTED)
    d = report.as_dict()
    assert d["convention"] == "sweighted"
    assert d["pass"] is True


# -- one kernel entry per pass ------------------------------------------------------

@pytest.mark.parametrize("convention", list(Eq2Convention))
def test_eq2_pass_evaluates_each_series_once_per_branch(convention, monkeypatch):
    # one read of each side's table per pass: the lower table at the entry's
    # arguments x < 1, the upper one at x >= 1, with x = t for S_WEIGHTED and
    # 1/t for DIRECT; each array is one of the entry's rows or their absolute-term sums
    grid = np.array(log_grid(0.05, 20.0, 64))
    calls = []
    side = axis._side

    def counting_side(parts, rows, t, x, *absolute):
        calls.append((parts, t.copy()))
        return side(parts, rows, t, x, *absolute)

    monkeypatch.setattr(axis, "_side", counting_side)
    samples = eq2_samples(grid, convention)
    monkeypatch.undo()
    inverted, rows = axis._CONVENTIONS[convention]
    x = 1.0 / grid if inverted else grid
    assert 0 < (x < 1.0).sum() < grid.size
    assert [parts for parts, _ in calls] == [axis._LOWER, axis._PARTS]
    assert np.array_equal(calls[0][1], x[x < 1.0]) and np.array_equal(calls[1][1], x[x >= 1.0])
    values = (grid * grid) * axis.kernels(rows, x, True) if inverted else axis.kernels(rows, x, True)
    assert np.array_equal(samples.t, grid)
    for got, want in zip((samples.combo_plus, samples.combo_minus,
                          samples.scale_plus, samples.scale_minus), values):
        assert np.array_equal(got, want)
    # the signed rows come out of the stacked loop bit for bit as they do alone
    assert values[:2].tobytes() == (
        (grid * grid) * axis.kernels(rows, x) if inverted else axis.kernels(rows, x)).tobytes()


@pytest.mark.parametrize("convention", list(Eq2Convention))
def test_default_verdict_reads_each_table_once(convention, monkeypatch):
    # on the default grid no margin calls for a refinement pass, so each
    # convention's verdict reads the lower and the upper table exactly once,
    # for its two combinations and their two absolute-term sums
    calls = []
    side = axis._side

    def counting_side(parts, rows, t, x, *absolute):
        calls.append((parts, len(rows), absolute))
        return side(parts, rows, t, x, *absolute)

    monkeypatch.setattr(axis, "_side", counting_side)
    report = verify_inequalities(GRID, convention)
    assert calls == [(axis._LOWER, 2, (True,)), (axis._PARTS, 2, (True,))]
    assert report.refined is False and report.grid_size == len(GRID)


def test_kernels_form_each_nome_once(monkeypatch):
    # each side's nome, x = e^{-pi/t} below t = 1 and e^{-pi t} above it, is
    # one exponential per point; the tables are built before the count
    t = np.array(GRID)
    rows = [axis.K_PLUS, axis.K_MINUS]
    axis.kernels(rows, t)
    sizes = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda a: sizes.append(np.size(a)) or exp(a))
    axis.kernels(rows, t)
    monkeypatch.undo()
    assert sizes == [(t < 1.0).sum(), (t >= 1.0).sum()]


def test_no_rows_give_an_empty_float_array_on_both_sides():
    for t in ([0.5], [2.0], [0.5, 1.0, 2.0], []):
        got = axis.kernels((), t)
        assert got.shape == (0, len(t)) and got.dtype == float


def test_list_rows_are_taken_on_both_sides():
    # a row may be any pair of numbers, a list included, as the cached tables key on tuples
    t = np.array([0.5, 2.0])
    want = axis.kernels([axis.KPHI, axis.K_MINUS], t)
    for rows in ([[1.0, 0.0], [-1.0, -W]], [[1, 0], list(axis.K_MINUS)]):
        for i in range(t.size):
            assert np.array_equal(axis.kernels(rows, t[i:i + 1]), want[:, i:i + 1])


def test_empty_grid_gives_empty_float_arrays():
    got = axis.kernels([axis.KPHI, axis.KPSI, axis.K_PLUS, axis.K_MINUS], [])
    assert got.shape == (4, 0) and got.dtype == float
    for convention in Eq2Convention:
        for value in vars(eq2_samples([], convention)).values():
            assert value.shape == (0,) and value.dtype == float


def test_kernels_take_every_t_in_their_range():
    # the evaluator's [0, 1] nodes go down to about 2e-4, below the grids' AXIS_T_MIN
    t = np.array([2e-4, 0.005, 0.5, 1.0, 100.0])
    assert np.all(np.isfinite(axis.kernels([axis.K_PLUS, axis.K_MINUS], t)))
    for bad in (math.nan, 0.0, -1.0, 100.5):
        with pytest.raises(ValueError):
            axis.kernels([axis.K_PLUS], np.array([0.5, bad]))
    for convention in Eq2Convention:
        for bad in (math.nan, 0.0, 0.005, 100.5):
            with pytest.raises(ValueError):
                eq2_samples([0.5, bad], convention)


# -- one definition: the verdicts read the kernels the Laplace sweep integrates ------

def test_sweighted_combinations_are_the_g_and_g_hat_kernels():
    from spherepack.magic import _PROFILES, RadialKind
    rows = axis._CONVENTIONS[Eq2Convention.S_WEIGHTED][1]
    assert rows == (_PROFILES[RadialKind.G][:2], _PROFILES[RadialKind.GHAT][:2])


def test_evaluator_reads_the_entry_bit_for_bit(monkeypatch):
    # the evaluator's [0, 1] node values are the entry's rows, and the
    # expansion it integrates on [1, inf) is each row's slab of the table that
    # the entry's t >= 1 Horner reads
    from spherepack import magic
    built = []
    build = magic._Kernel.build.__func__
    monkeypatch.setattr(magic._Kernel, "build",
                        classmethod(lambda cls, *args: built.append(args) or build(cls, *args)))
    quad = QuadratureConfig()
    magic.MagicEvaluator(quad)
    rows = [profile[:2] for profile in magic._PROFILES.values()]
    t, _ = panel_nodes(0.0, 1.0, quad.panels_per_segment, quad.gauss_order)
    table, _, low = axis._table(axis._PARTS, tuple(rows))
    assert len(built) == len(rows)
    for i, ((nodes, _, values, upper, j0, _), row, want) in enumerate(
            zip(built, rows, axis.kernels(rows, t))):
        assert np.array_equal(nodes, t)
        assert values.tobytes() == want.tobytes(), row
        assert j0 == low and upper.tobytes() == table[i].tobytes(), row


def test_one_cut_reaches_the_sweep_and_the_entry(monkeypatch):
    # the one top cut sizes the table that both the sweep's terms on [1, inf)
    # and the entry's t >= 1 values read, so one patch of it moves both; the
    # patch keeps four coefficients fewer, since one or two fewer stay below a
    # rounding almost everywhere, as the cut is meant to
    from spherepack import magic
    radii, t = np.linspace(0.0, 6.0, 3001), np.linspace(1.0, 3.0, 2001)

    def both():
        axis._table.cache_clear()
        ev = magic.MagicEvaluator(QuadratureConfig())
        return ev.values((magic.RadialKind.G,), radii)[0], axis.kernels((axis.K_PLUS,), t)[0]

    g, k = both()
    cut = axis.top_cut
    monkeypatch.setattr(axis, "top_cut", lambda size: cut(size) - 4)
    try:
        cut_g, cut_k = both()
    finally:
        monkeypatch.undo()
        axis._table.cache_clear()
    assert not np.array_equal(cut_g, g) and not np.array_equal(cut_k, k)
    assert np.array_equal(both()[1], k)


def test_flipped_psi_moment_terms_fail_the_sweighted_verdict(monkeypatch):
    # a sign slip in psi_s's part of the inversion laws moves g and, now that
    # both read one definition, the verdict too (min_plus about -5.4e4)
    from spherepack import magic
    quad = QuadratureConfig()
    g = magic.default_evaluator(quad).g_values([1.7, 2.2])

    def clear():
        for cached in (axis._table, magic.default_evaluator):
            cached.cache_clear()

    flipped = tuple((kernel, m, -factor if series is psi_i_qseries else factor, series, rate)
                    for kernel, m, factor, series, rate in axis._PARTS)
    # magic imports the one tuple by name, so the patch rebinds both names
    for module in (axis, magic):
        monkeypatch.setattr(module, "_PARTS", flipped)
    clear()
    try:
        assert not np.array_equal(magic.default_evaluator(quad).g_values([1.7, 2.2]), g)
        report = verify_inequalities(GRID, Eq2Convention.S_WEIGHTED)
        assert not report.pass_ and report.min_plus < 0.0
    finally:
        monkeypatch.undo()
        clear()
    assert verify_inequalities(GRID, Eq2Convention.S_WEIGHTED).pass_


# -- the structural constants, read off the one table ------------------------------

def test_inversion_law_constants_read_off_the_profiles_table():
    # in the profiles' table, column j - low holds the e^{-pi j t} terms
    from spherepack.magic import _PROFILES, RadialKind
    kinds = list(_PROFILES)
    rows = tuple(profile[:2] for profile in _PROFILES.values())
    table, orders, low = axis._table(axis._PARTS, rows)
    assert orders == (0, 1, 2)
    k_plus, k_minus = table[kinds.index(RadialKind.G)], table[kinds.index(RadialKind.GHAT)]
    assert low == -2
    # e^{2 pi t}: (36/pi^2) B's pole plus W psi_i's, and their exact cancellation in K-
    assert k_plus[0, -2 - low] == 72.0 / PI ** 2 == 7.29512522224832
    assert k_minus[0, -2 - low] == 0.0
    # no e^{pi t} term in any row, so no pole at s = 1
    assert not table[:, :, -1 - low].any()
    # -(12t/pi) A's constant term 720 t, with A = (E2 E4 - E6) E4/Delta
    assert k_plus[1, -low] == -8640.0 / PI and k_minus[1, -low] == 8640.0 / PI
    # -W 504 from -Kphi's (36/pi^2) B and +W 144 from -W Kpsi = W psi_i
    assert k_minus[0, -low] == -360.0 * W


def test_a_psi_part_off_4z_is_refused():
    off = QSeries(Nome.Q4, [1, 1] + [0] * 256)
    for parts in (axis._LOWER, axis._PARTS):
        moved = tuple((kernel, m, factor, (lambda: off) if kernel else series, rate)
                      for kernel, m, factor, series, rate in parts)
        with pytest.raises(RuntimeError, match="4Z"):
            axis._table.__wrapped__(moved, (axis.K_PLUS,))


# -- both tables against a 40-digit evaluation of the stored coefficients ------------

def _decimal_pi() -> Decimal:
    """pi by Machin's formula, 16 arctan(1/5) - 4 arctan(1/239), at the context's precision."""
    def arctan_inverse(n):
        x = Decimal(1) / n
        term, total, k = x, x, 1
        while True:
            term *= -x * x
            k += 2
            if total + term / k == total:
                return total
            total += term / k
    return 16 * arctan_inverse(5) - 4 * arctan_inverse(239)


def _decimal_sum(series, nome: Decimal) -> Decimal:
    """sum_k c_k nome**k over the stored window, the c_k exact Fractions."""
    total, power = Decimal(0), nome ** series.lowest
    for k in range(series.lowest, series.order + 1):
        c = series.coefficient(k)
        if c:
            total += Decimal(c.numerator) / Decimal(c.denominator) * power
        power *= nome
    return total


def _reference_kernels(t: float, pi: Decimal) -> tuple[Decimal, Decimal]:
    """Kphi and Kpsi at the float t: t^2 phi0(i/t) and t^2 psi_s(i/t) below
    t = 1, the inversion laws' parts in q2 = e^{-2 pi t} and q4 = e^{-pi t/4}
    above it."""
    u = Decimal(t)
    if t < 1.0:
        return (u * u * _decimal_sum(phi0_qseries(), (-2 * pi / u).exp()),
                u * u * _decimal_sum(psi_s_qseries(), (-pi / (4 * u)).exp()))
    q2, q4 = (-2 * pi * u).exp(), (-pi * u / 4).exp()
    kphi = (u * u * _decimal_sum(phi0_qseries(), q2)
            - 12 * u / pi * _decimal_sum(phi0_anomaly_qseries(), q2)
            + 36 / (pi * pi) * _decimal_sum(e4sq_over_delta_qseries(), q2))
    return kphi, -_decimal_sum(psi_i_qseries(), q4)


def test_both_tables_meet_a_40_digit_reference():
    # the exponent's rounding moves x = e^{-pi max(t, 1/t)} by that many
    # units, and each table reads a small power of x, hence the unit below
    t = np.concatenate([np.geomspace(axis.AXIS_T_MIN, 1.0, 40, endpoint=False),
                        np.geomspace(1.0, 1.0 / axis.AXIS_T_MIN, 40)])
    got = axis.kernels([axis.KPHI, axis.KPSI], t)
    with localcontext() as ctx:
        ctx.prec = 40
        pi = _decimal_pi()
        for i, x in enumerate(t):
            unit = 2.0 * (1.0 + PI * max(x, 1.0 / x)) * 2.0 ** -52
            for value, want in zip(got[:, i], _reference_kernels(float(x), pi)):
                assert abs(Decimal(value) - want) <= Decimal(unit) * abs(want), (x, value, want)


# -- the lower table's cut and both tables' truncation guard -------------------------

@pytest.mark.parametrize("row", [axis.KPHI, axis.KPSI, axis.K_PLUS, axis.K_MINUS, (1.0, W)],
                         ids=["Kphi", "Kpsi", "K_plus", "K_minus", "direct_plus"])
def test_lower_table_drops_a_proven_negligible_tail(row):
    # the lower table is the head of the rows' whole expansion in x = e^{-pi/t},
    # and its dropped terms sum at x = e^{-pi}, so at every t <= 1, to at most
    # 2^-60 of the leading term
    poly = np.zeros(101)
    for kernel, _, _, series, rate in axis._LOWER:
        s = series()
        for k in range(s.lowest, s.order + 1):
            if s.num[k - s.lowest]:
                poly[int(rate * k)] += row[kernel] * float(s.coefficient(k))
    table, orders, low = axis._table(axis._LOWER, (row,))
    width = table.shape[2]
    assert orders == (2,) and low == np.flatnonzero(poly)[0]
    assert np.array_equal(table[0, 0], poly[low:low + width])
    size = np.abs(poly[low:]) * np.exp(-PI * np.arange(poly.size - low))
    assert size[width:].sum() <= 2.0 ** -60 * size[0]


@pytest.mark.parametrize("table", ["lower", "upper"])
def test_a_part_too_short_at_one_is_refused(table):
    # a part whose tail estimate at its nome at t = 1 exceeds EVAL_TOL is
    # refused when the table is built, for every t on its side at once
    parts, psi = (axis._LOWER, psi_s_qseries) if table == "lower" else (axis._PARTS, psi_i_qseries)
    short = psi().truncate(20)
    moved = tuple((kernel, m, factor, (lambda: short) if series is psi else series, rate)
                  for kernel, m, factor, series, rate in parts)
    with pytest.raises(TruncationInsufficient):
        axis._table.__wrapped__(moved, (axis.K_PLUS,))
    assert axis._table.__wrapped__(parts, (axis.K_PLUS,))[0].shape[0] == 1
