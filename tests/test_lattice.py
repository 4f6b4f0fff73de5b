"""Lattice geometry: membership, shells against brute force, decoder optimality."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from spherepack.errors import ResourceGuard
from spherepack.forms import eisenstein_qseries
from spherepack.lattice import (
    LatticeVector,
    Shell,
    covolume,
    decode_batch,
    e8_basis,
    e8_membership,
    enumerate_shells,
    min_norm,
    nearest_point,
    theta_coefficients,
    _box_vectors,
)


def test_membership_examples():
    assert e8_membership([0] * 8)
    assert e8_membership([1, 1, 0, 0, 0, 0, 0, 0])
    assert not e8_membership([1, 0, 0, 0, 0, 0, 0, 0])
    assert e8_membership([Fraction(1, 2)] * 8)
    assert not e8_membership([Fraction(1, 2)] * 7 + [Fraction(3, 2)])  # sum 5 odd
    assert not e8_membership([Fraction(1, 2)] + [0] * 7)  # mixed cosets


def test_membership_rejects_non_half_integers():
    with pytest.raises(ValueError):
        e8_membership([0.3] + [0] * 7)


def test_lattice_vector_invariants():
    v = LatticeVector((1,) * 8)
    assert v.norm2() == 2
    with pytest.raises(ValueError):
        LatticeVector((2, 1, 0, 0, 0, 0, 0, 0))  # mixed parity
    with pytest.raises(ValueError):
        LatticeVector((2, 0, 0, 0, 0, 0, 0, 0))  # sum 2, not 0 mod 4


def test_basis_is_unimodular_and_even():
    basis = e8_basis()
    assert abs(basis.determinant()) == 1
    gram = basis.gram()
    for i in range(8):
        assert gram[i][i] % 2 == 0
    for row in basis.rows:
        assert e8_membership([Fraction(h, 2) for h in row.half_coords])


def test_gram_determinant_is_one():
    gram = e8_basis().gram()
    m = [[Fraction(x) for x in row] for row in gram]
    # fraction-free elimination on the exact Gram matrix
    det = Fraction(1)
    for k in range(8):
        piv = next(i for i in range(k, 8) if m[i][k] != 0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, 8):
            f = m[i][k] / m[k][k]
            for j in range(k, 8):
                m[i][j] -= f * m[k][j]
    assert det == 1


def test_covolume_one():
    assert covolume() == 1.0


def test_min_norm():
    assert abs(min_norm() - math.sqrt(2)) < 1e-15
    assert min_norm() ** 2 == pytest.approx(2.0, abs=1e-12)
    # no odd shells: evenness of the lattice
    counts = [s.norm2 for s in enumerate_shells(8)]
    assert counts == [2, 4, 6, 8]


def test_first_shells():
    shells = enumerate_shells(4)
    assert [(s.norm2, s.count) for s in shells] == [(2, 240), (4, 2160)]


def test_shell_counts_match_box_enumeration():
    """Counting DP against the explicit pruned box search, norms <= 8."""
    shells_dp = enumerate_shells(8)
    _, norm2 = _box_vectors(8)
    norms, counts = np.unique(norm2, return_counts=True)
    assert {s.norm2: s.count for s in shells_dp} == dict(zip(norms.tolist(), counts.tolist()))


#: sha256 of enumerate_shells(m, with_vectors=True) for m in _PINNED_NORMS,
#: taken from the recursive box search that the array expansion replaced
_PINNED_NORMS = (0, 1, 2, 8, 12)
_PINNED_SHELLS_SHA256 = "35c362016afe296286356af9b2ee79ca2026da9fd5f95912ab9e9ac2c7acb4ad"


def test_shell_vectors_match_pinned_hash():
    import hashlib
    digest = hashlib.sha256()
    for m in _PINNED_NORMS:
        shells = enumerate_shells(m, with_vectors=True)
        digest.update(repr([(s.norm2, s.count, tuple(map(tuple, s.vectors.tolist())))
                            for s in shells]).encode())
    assert digest.hexdigest() == _PINNED_SHELLS_SHA256


def test_shells_with_vectors():
    shells = enumerate_shells(2, with_vectors=True)
    assert len(shells) == 1
    shell = shells[0]
    assert shell.count == 240 and len(shell.vectors) == 240
    assert shell.vectors.dtype == np.int8 and shell.vectors.shape == (240, 8)
    assert ((shell.vectors.astype(np.int64) ** 2).sum(axis=1) == 4 * 2).all()
    # duplicate-free
    assert len(np.unique(shell.vectors, axis=0)) == 240


def test_shell_vectors_are_read_only():
    for shell in enumerate_shells(8, with_vectors=True):
        assert not shell.vectors.flags.writeable
        with pytest.raises(ValueError):
            shell.vectors[0, 0] = 0
    rows = np.array([[2, 2, 0, 0, 0, 0, 0, 0]], dtype=np.int8)
    Shell(2, 1, rows)
    assert rows.flags.writeable  # the caller's own array is left as it was


def test_shell_equality_and_hash_do_not_raise():
    a = enumerate_shells(4, with_vectors=True)
    b = enumerate_shells(4, with_vectors=True)
    assert a == b and a[0] != a[1]
    assert a == enumerate_shells(4)  # equality goes by (norm2, count)
    assert {hash(s) for s in a} == {hash(s) for s in b}
    assert len(set(a + b)) == 2


@pytest.mark.parametrize("rows", [
    pytest.param(np.array([[2, 2, 0, 0, 0, 0, 0, 0]] * 2, np.int8), id="two rows for count 1"),
    pytest.param(np.array([[2, 2, 0, 0, 0, 0, 0]], np.int8), id="seven coordinates"),
    pytest.param(np.array([2, 2, 0, 0, 0, 0, 0, 0], np.int8), id="flat vector"),
    pytest.param(np.array([[2, 1, 1, 1, -1, 0, 0, 0]], np.int8), id="mixed parity"),
    pytest.param(np.array([[-1, 1, 1, 1, 1, 1, 1, 1]], np.int8), id="sum 6"),
    pytest.param(np.array([[4, 0, 0, 0, 0, 0, 0, 0]], np.int8), id="norm 4, integer coset"),
    pytest.param(np.array([[3, 1, 1, 1, 1, 1, 1, -1]], np.int8), id="norm 4, half coset"),
    pytest.param(np.array([[2, 2, 0, 0, 0, 0, 0, 0]], np.int64), id="int64"),
    pytest.param([[2, 2, 0, 0, 0, 0, 0, 0]], id="list"),
])
def test_shell_refuses_bad_vectors(rows):
    """Each row fails one check only (sum h^2 = 8 unless the norm is the fault)."""
    with pytest.raises(ValueError):
        Shell(2, 1, rows)


def test_shell_norm_check_cannot_overflow():
    """sum h^2 = 8 * 127^2 = 129,032 overflows int8 and int16 sums."""
    rows = np.full((1, 8), 127, np.int8)  # odd, with sum 1,016 = 0 mod 4
    assert Shell(32258, 1, rows).count == 1
    with pytest.raises(ValueError):
        Shell(2, 1, rows)


def test_vector_cap_counts_match_dp():
    """At the vector cap, the box search's shells against the counting DP's."""
    boxed = enumerate_shells(24, with_vectors=True)
    assert [(s.norm2, s.count) for s in boxed] == [(s.norm2, s.count) for s in enumerate_shells(24)]
    assert all(len(s.vectors) == s.count for s in boxed)


def test_resource_guards():
    with pytest.raises(ResourceGuard):
        enumerate_shells(102)
    with pytest.raises(ResourceGuard):
        enumerate_shells(26, with_vectors=True)
    with pytest.raises(ResourceGuard):
        theta_coefficients(51)


def test_theta_coefficients_match_e4():
    """Shell counts against the weight-4 Eisenstein coefficients, independently computed."""
    r = theta_coefficients(10)
    e4 = eisenstein_qseries(4, 10)
    assert r == [int(e4.coefficient(n)) for n in range(11)]
    assert r[:4] == [1, 240, 2160, 6720]


def test_closure_under_addition():
    rng = random.Random(11)
    shell_vectors = np.concatenate([s.vectors for s in enumerate_shells(4, with_vectors=True)])
    for _ in range(1000):
        a, b = rng.choice(shell_vectors), rng.choice(shell_vectors)
        assert e8_membership([Fraction(int(x) + int(y), 2) for x, y in zip(a, b)])


def test_nearest_point_fixed_cases():
    v, d = nearest_point([0.0] * 8)
    assert d == 0.0 and v.half_coords == (0,) * 8
    v, d = nearest_point([1.0, 1.0] + [0.0] * 6)
    assert d == 0.0 and v.half_coords == (2, 2, 0, 0, 0, 0, 0, 0)
    v, d = nearest_point([0.9, 0.9] + [0.0] * 6)
    assert v.half_coords == (2, 2, 0, 0, 0, 0, 0, 0)
    assert abs(d - math.sqrt(0.02)) < 1e-12


def test_nearest_point_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_point([0.0] * 7)
    with pytest.raises(ValueError):
        nearest_point([float("nan")] + [0.0] * 7)


def _exhaustive_nearest(y):
    """Independent oracle: all candidates within one unit of round(y) per coordinate.

    Valid because the covering radius of the lattice is 1, so the nearest
    point never deviates from coordinate-wise rounding by more than 1.
    """
    base = np.floor(np.asarray(y) + 0.5)
    best = None
    # integer coset
    offsets = np.array(np.meshgrid(*[[-1, 0, 1]] * 8)).T.reshape(-1, 8)
    cands = base + offsets
    ok = cands.sum(axis=1) % 2 == 0
    cands = cands[ok]
    d2 = ((cands - y) ** 2).sum(axis=1)
    best = d2.min()
    # half coset
    base_h = np.floor(np.asarray(y) - 0.5 + 0.5) + 0.5
    cands = base_h + offsets
    ok = cands.sum(axis=1) % 2 == 0
    cands = cands[ok]
    d2 = ((cands - y) ** 2).sum(axis=1)
    return math.sqrt(min(best, d2.min()))


def test_nearest_point_just_inside_the_coordinate_bound():
    x = float(np.nextafter(2.0 ** 50, 0.0))  # 2^50 - 1/8
    for y in ([x, -x, 0.5, 0.3, -0.7, 1.5, 2.5, 0.0], [x - 0.5] + [0.25] * 7):
        v, d = nearest_point(y)  # a LatticeVector: its coordinate sum is even
        nearest = [h / 2.0 for h in v.half_coords]
        assert e8_membership(nearest)
        assert abs(d - math.dist(y, nearest)) < 1e-12
        assert d <= 1.0  # the covering radius
    # where y - 1/2 and y + 1/2 are exact floats the point is the nearest one
    y = np.array([x - 0.5] + [0.25] * 7)
    assert abs(nearest_point(y)[1] - _exhaustive_nearest(y)) < 1e-12
    with pytest.raises(ValueError):
        nearest_point([2.0 ** 50] + [0.0] * 7)


def test_nearest_point_near_the_bound_matches_its_translate():
    """y - 1/2 rounded at -2^50 + 1/8 and sent the half coset one unit too far."""
    x = float(np.nextafter(2.0 ** 50, 0.0))  # 2^50 - 1/8
    far = [x, -x, 0.5, 0.3, -0.7, 1.5, 2.5, 0.0]
    near = [-0.125, 0.125, 0.5, 0.3, -0.7, 1.5, 2.5, 0.0]  # far less (2^50, -2^50, 0, ..., 0)
    v, d = nearest_point(far)
    w, e = nearest_point(near)
    assert d == e == 0.7818247885555946
    shift = (2 ** 51, -(2 ** 51)) + (0,) * 6
    assert tuple(a - b for a, b in zip(v.half_coords, shift)) == w.half_coords


def test_decoder_rounds_half_up_exactly():
    """At x = 1/2 - 2^-54 the float sum x + 1/2 is 1, but 0 is the nearer integer."""
    x = 0.5 - 2.0 ** -54
    best, dist = decode_batch([[x, x] + [0.0] * 6])
    assert best.tolist() == [[0.0] * 8]
    assert dist[0] == math.sqrt(x * x + x * x)
    assert decode_batch([[-x, -x] + [0.0] * 6])[0].tolist() == [[0.0] * 8]


def test_decoder_matches_exhaustive_search():
    rng = np.random.default_rng(20240817)
    pts = rng.uniform(-2.0, 2.0, size=(1000, 8))
    _, dists = decode_batch(pts)
    for y, d in zip(pts, dists):
        assert abs(d - _exhaustive_nearest(y)) < 1e-9


def test_decoder_returns_lattice_points():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.0, 3.0, size=(200, 8))
    best, _ = decode_batch(pts)
    for row in best:
        assert e8_membership([float(c) for c in row])
