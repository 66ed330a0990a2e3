import numpy as np
import pytest

from qmeasure.errors import NotPSDError
from qmeasure.matkit import (DEFAULT_TOL, Tolerances, eigh_desc, partial_trace,
                             polar_decompose, psd_sqrt, psd_support,
                             tensor_product, trace_norm)


def kron_oracle(a, b):
    """Brute-force Kronecker product: out[i*rb+k, j*cb+l] = a[i,j] b[k,l]."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m, dims, keep):
    """Independent index-summation partial trace."""
    d_a, d_b = dims
    if keep == 0:
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                for k in range(d_b):
                    out[i, j] += m[i * d_b + k, j * d_b + k]
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                for k in range(d_a):
                    out[i, j] += m[k * d_b + i, k * d_b + j]
    return out


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5


def test_tensor_product_identity():
    np.testing.assert_allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_product_basis_bookkeeping():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    np.testing.assert_allclose(tensor_product(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_product_against_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    np.testing.assert_allclose(tensor_product(a, b), kron_oracle(a, b), atol=1e-14)


def test_x_tensor_z_on_00():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    expected = np.array([0, 0, 1, 0], dtype=complex)  # |10>
    np.testing.assert_allclose(kron_oracle(X, Z) @ ket00, expected, atol=1e-14)
    np.testing.assert_allclose(tensor_product(X, Z) @ ket00, expected, atol=1e-14)


def test_tensor_product_bilinear_and_associative():
    rng = np.random.default_rng(4)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(3))
    lhs = tensor_product(a, 0.3 * b + 0.7 * c)
    rhs = 0.3 * tensor_product(a, b) + 0.7 * tensor_product(a, c)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    assert np.max(np.abs(left - right)) < 1e-12


def test_partial_trace_bell():
    np.testing.assert_allclose(partial_trace(BELL, (2, 2), keep=1), np.eye(2) / 2,
                               atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = random_hermitian(2, rng)
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = random_hermitian(3, rng)
    b = b @ b.conj().T
    b /= np.trace(b).real
    np.testing.assert_allclose(partial_trace(np.kron(a, b), (2, 3), keep=0), a,
                               atol=1e-12)


def test_partial_trace_random_psd_against_oracle():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = g @ g.conj().T
    for keep in (0, 1):
        got = partial_trace(m, (2, 3), keep)
        np.testing.assert_allclose(got, partial_trace_oracle(m, (2, 3), keep), atol=1e-12)
    assert abs(np.trace(partial_trace(m, (2, 3), 0)) - np.trace(m)) < 1e-9


def test_partial_trace_linearity():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    alpha, beta = 0.3 - 0.2j, 1.7 + 0.4j
    lhs = partial_trace(alpha * a + beta * b, (3, 2), keep=1)
    rhs = alpha * partial_trace(a, (3, 2), 1) + beta * partial_trace(b, (3, 2), 1)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 3), keep=0)


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(psd_sqrt(eigh_desc(np.diag([4.0, 9.0]))), np.diag([2.0, 3.0]),
                               atol=1e-12)


def test_psd_sqrt_identity():
    np.testing.assert_allclose(psd_sqrt(eigh_desc(np.eye(3))), np.eye(3), atol=1e-12)


def test_psd_sqrt_from_known_factor():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = g.conj().T @ g
    s = psd_sqrt(eigh_desc(a))
    assert np.linalg.norm(s @ s - a) <= 1e-9


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        psd_sqrt(eigh_desc(np.diag([1.0, -1.0])))


def test_psd_sqrt_idempotence_contract():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = psd_sqrt(eigh_desc(g @ g.conj().T))
    np.testing.assert_allclose(psd_sqrt(eigh_desc(s @ s)), s, atol=1e-8)


def test_psd_support_diagonal():
    supp = psd_support(eigh_desc(np.diag([1.0, 0.0])))
    np.testing.assert_allclose(supp.support, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(supp.kernel, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(supp.pinv_sqrt, np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_support_full_rank():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    f = g @ g.conj().T + 0.1 * np.eye(3)
    supp = psd_support(eigh_desc(f))
    np.testing.assert_allclose(supp.support, np.eye(3), atol=1e-9)
    np.testing.assert_allclose(supp.kernel, np.zeros((3, 3)), atol=1e-9)
    np.testing.assert_allclose(supp.pinv_sqrt @ f @ supp.pinv_sqrt, supp.support,
                               atol=1e-9)


def test_psd_support_rank_one():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    proj = np.outer(plus, plus)
    # rank-1 spectral formula: eigenvalue 1/2 with eigenvector |+>
    supp = psd_support(eigh_desc(0.5 * proj))
    np.testing.assert_allclose(supp.support, proj, atol=1e-12)
    np.testing.assert_allclose(supp.pinv_sqrt, np.sqrt(2.0) * proj, atol=1e-12)


def test_polar_of_unitary():
    rng = np.random.default_rng(19)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    v, p = polar_decompose(q)
    np.testing.assert_allclose(v, q, atol=1e-10)
    np.testing.assert_allclose(p, np.eye(3), atol=1e-10)


def test_polar_of_psd():
    v, p = polar_decompose(np.diag([2.0, 3.0]))
    np.testing.assert_allclose(v, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(p, np.diag([2.0, 3.0]), atol=1e-12)


def test_polar_of_singular():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.0  # |0><1|
    v, p = polar_decompose(m)
    np.testing.assert_allclose(p, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(v @ p, m, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_eigh_desc_reconstruction(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(5):
        a = random_hermitian(d, rng)
        w, v = eigh_desc(a)
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-9 * d
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-9
        assert np.all(np.diff(w) <= 1e-12)


def test_eigh_desc_checks_the_adjoint_gap_against_eps():
    tol = Tolerances(eps=1e-3)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    w, _ = eigh_desc(np.eye(2) + 0.9e-3 * skew, tol)
    np.testing.assert_allclose(w, [1.00045, 0.99955], atol=1e-12)
    with pytest.raises(ValueError, match="matrix is not Hermitian within tolerance"):
        eigh_desc(np.eye(2) + 1.1e-3 * skew, tol)


def test_eigh_desc_deterministic():
    a = np.eye(3) / 3  # fully degenerate
    w1, v1 = eigh_desc(a)
    w2, v2 = eigh_desc(a)
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(w1, w2)


@pytest.mark.parametrize("a, values, columns", [
    # exact ties: the vector whose first nonzero entry comes first leads
    (np.diag([0.5, 1.0, 0.5, 1.0]), [1.0, 1.0, 0.5, 0.5], [1, 3, 0, 2]),
    (np.diag([0.0, 2.0, 0.0]), [2.0, 0.0, 0.0], [1, 0, 2]),
    # eigenvalues equal to 12 decimals tie, so input position decides,
    # not the larger eigenvalue
    (np.diag([0.5, 0.5 + 1e-14, 0.25]), [0.5, 0.5 + 1e-14, 0.25], [0, 1, 2]),
])
def test_eigh_desc_orders_degenerate_unit_vectors(a, values, columns):
    w, v = eigh_desc(a)
    np.testing.assert_array_equal(w, values)
    np.testing.assert_array_equal(v, np.eye(len(values))[:, columns])


def test_eigh_desc_orders_degenerate_blocks_after_phase_fixing():
    # two copies of |+><+|: each eigenvalue is doubly degenerate across blocks
    a = np.kron(np.eye(2), np.full((2, 2), 0.5))
    w, v = eigh_desc(a)
    np.testing.assert_allclose(w, [1.0, 1.0, 0.0, 0.0], atol=1e-12)
    plus = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
    expected = np.column_stack([plus, np.roll(plus, 2), minus, np.roll(minus, 2)])
    np.testing.assert_allclose(v, expected, atol=1e-12)


def loop_eigh_desc(a, eps=DEFAULT_TOL.eps):
    """Per-column reference: phase-fix each eigenvector, then sort on Python tuples."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    cols = []
    for k in range(w.size):
        col = v[:, k]
        idx = np.flatnonzero(np.abs(col) > eps)
        z = col[idx[0]] if idx.size else col[np.argmax(np.abs(col))]
        cols.append(col * (z.conjugate() / abs(z)) if abs(z) else col)

    def key(k):
        ent = np.round(cols[k], 12)
        return -round(float(w[k]), 12), tuple(zip((-ent.real).tolist(), (-ent.imag).tolist()))

    order = sorted(range(w.size), key=key)
    return w[order], np.column_stack([cols[k] for k in order])


def test_eigh_desc_matches_the_per_column_sort_on_degenerate_spectra():
    rng = np.random.default_rng(31)
    for trial in range(200):
        d = int(rng.integers(1, 7))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        vals = rng.integers(0, 3, size=d).astype(float)  # repeated eigenvalues
        a = q @ np.diag(vals) @ q.conj().T if trial % 2 else np.diag(vals).astype(complex)
        w, v = eigh_desc(a)
        w_ref, v_ref = loop_eigh_desc(a)
        np.testing.assert_array_equal(w, w_ref)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kwargs", [
    {"eps": float("nan")}, {"eps": -1.0}, {"eps": 0.0}, {"eps": float("inf")},
    {"rank_tol_factor": float("inf")}, {"rank_tol_factor": -1e-9},
    {"rank_tol_factor": float("nan")},
])
def test_tolerances_reject_non_finite_or_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        Tolerances(**kwargs)


def test_tolerances_accept_a_zero_rank_cutoff():
    assert Tolerances(rank_tol_factor=0.0).rank_cutoff(1.0) == 0.0


def test_trace_norm_hermitian():
    assert abs(trace_norm(np.diag([1.0, -2.0, 0.5])) - 3.5) < 1e-12
