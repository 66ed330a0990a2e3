"""The spectrum and rank rules of `Tolerances` at each site that enforces them.

Every site decides "the spectrum stays within [0, upper] up to eps" through
`Tolerances.spectrum_violation`, and "this eigenvalue counts towards the rank"
through `Tolerances.support`; these tests put one eigenvalue just inside and
just outside each edge and check each site agrees with the rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import harness, matkit
from qmeasure.channels import (ChoiMatrix, KrausChannel, Superoperator, kraus_from_choi,
                               pullback_povm, vec)
from qmeasure.decomposition import kraus_rank, verify_premise
from qmeasure.errors import NonPositiveEffectError, NotCPError, NotPSDError
from qmeasure.matkit import DEFAULT_TOL, Tolerances
from qmeasure.measure import Effect, Povm
from qmeasure.states import DensityOperator, pure_ket, purify

EPS = DEFAULT_TOL.eps
D = 4  # also a 2 x 2 Choi matrix


class Rejected(Exception):
    """Raised by the test for sites that answer with False instead of raising."""


def spectral_matrix(w, seed=0):
    """U diag(w) U† for a random unitary U, Hermitian to the last bit."""
    u = harness.random_unitary(len(w), np.random.default_rng(seed))
    return matkit.hermitian_part((u * np.asarray(w, dtype=float)) @ u.conj().T)


def lower_spectrum(low):
    """Unit trace, lowest eigenvalue `low`, the rest well inside (0, 1)."""
    return [low, 0.2, 0.3, 0.5 - low]


def upper_spectrum(top):
    """Highest eigenvalue `top`, the rest well inside (0, 1)."""
    return [0.2, 0.3, 0.5, top]


def psd_eigh(m):
    matkit.psd_sqrt(matkit.eigh_desc(m))


def is_cp(m):
    if not ChoiMatrix(m, d_in=2, d_out=2).is_cp():
        raise Rejected


def choi_to_kraus(m):
    kraus_from_choi(ChoiMatrix(m, d_in=2, d_out=2))


def trace_nonincreasing(m):
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(w)) @ v.conj().T  # sum K†K = m, up to rounding
    if not KrausChannel.from_ops([root]).is_trace_nonincreasing():
        raise Rejected


def pullback(m):
    """Pull {P, I - P} back through rho -> rho + tr(rho X) Z, whose dual sends P to m.

    tr Z = 0 keeps the map trace preserving; tr(Z P) = 1 gives dual(P) = P + X.
    """
    p = np.diag([1.0, 0.0, 0.0, 0.0])
    z = np.diag([1.0] + [-1.0 / (D - 1)] * (D - 1))
    x = m - p
    phi = Superoperator(np.eye(D * D) + np.outer(vec(z), vec(x.T)))
    pullback_povm(phi, Povm.from_effects([p, np.eye(D) - p], labels=["p", "rest"]))


# (site, the error it rejects with, whether its window is [0, 1] rather than [0, inf))
SITES = [
    ("psd_eigh", psd_eigh, NotPSDError, False),
    ("Effect", Effect, ValueError, True),
    ("DensityOperator", DensityOperator, ValueError, False),
    ("kraus_from_choi", choi_to_kraus, NotCPError, False),
    ("is_cp", is_cp, Rejected, False),
    ("is_trace_nonincreasing", trace_nonincreasing, Rejected, True),
    ("pullback_povm", pullback, NonPositiveEffectError, True),
]
# A sum of K†K is PSD, so is_trace_nonincreasing has no lower edge to test.
LOWER = [(name, call, err) for name, call, err, _ in SITES if name != "is_trace_nonincreasing"]
UPPER = [(name, call, err) for name, call, err, upper_one in SITES if upper_one]


def rejection(call, m):
    """The exception a site rejects m with, or None when it accepts m."""
    try:
        call(m)
    except (ValueError, Rejected) as exc:
        return exc
    return None


@pytest.mark.parametrize("name, call, err", LOWER, ids=[s[0] for s in LOWER])
def test_each_site_rejects_a_lowest_eigenvalue_beyond_eps(name, call, err):
    with pytest.raises(err):
        call(spectral_matrix(lower_spectrum(-1.5 * EPS)))
    call(spectral_matrix(lower_spectrum(-0.5 * EPS)))


@pytest.mark.parametrize("name, call, err", UPPER, ids=[s[0] for s in UPPER])
def test_each_upper_one_site_rejects_a_highest_eigenvalue_beyond_one_plus_eps(name, call, err):
    with pytest.raises(err):
        call(spectral_matrix(upper_spectrum(1.0 + 1.5 * EPS)))
    for k in (0.5, -0.5, -1.5):
        call(spectral_matrix(upper_spectrum(1.0 + k * EPS)))


def test_site_messages_keep_their_wording():
    m = spectral_matrix(lower_spectrum(-1.5 * EPS))
    with pytest.raises(NotPSDError, match="is below -eps"):
        psd_eigh(m)
    with pytest.raises(ValueError, match="negative eigenvalue -1.5"):
        DensityOperator(m)
    with pytest.raises(NotCPError, match="Choi eigenvalue -1.5.*map is not CP"):
        choi_to_kraus(m)
    with pytest.raises(NonPositiveEffectError, match="pulled-back effect 'p': effect spectrum"):
        pullback(m)


# c in units of eps, kept 1e-3 away from the edge at |c| = 1, where rounding decides
EDGE_C = st.floats(-3.0, 3.0).filter(lambda c: abs(abs(c) - 1.0) > 1e-3)


@pytest.mark.parametrize("name, call, err", LOWER, ids=[s[0] for s in LOWER])
@settings(deadline=None, max_examples=40)
@given(c=EDGE_C, seed=st.integers(0, 2 ** 32 - 1))
def test_lower_edge_decision_follows_the_spectrum_rule(name, call, err, c, seed):
    w = lower_spectrum(c * EPS)
    exc = rejection(call, spectral_matrix(w, seed))
    assert (exc is None) == (DEFAULT_TOL.spectrum_violation(w) is None) == (c > -1.0)
    assert exc is None or isinstance(exc, err)


@pytest.mark.parametrize("name, call, err", UPPER, ids=[s[0] for s in UPPER])
@settings(deadline=None, max_examples=40)
@given(c=EDGE_C, seed=st.integers(0, 2 ** 32 - 1))
def test_upper_edge_decision_follows_the_spectrum_rule(name, call, err, c, seed):
    w = upper_spectrum(1.0 + c * EPS)
    exc = rejection(call, spectral_matrix(w, seed))
    assert (exc is None) == (DEFAULT_TOL.spectrum_violation(w, upper=1.0) is None) == (c < 1.0)
    assert exc is None or isinstance(exc, err)


def test_spectrum_violation_reports_the_larger_excess_beyond_eps():
    tol = Tolerances(eps=1e-3)
    assert tol.spectrum_violation([0.0, 1.0], upper=1.0) is None
    assert tol.spectrum_violation([-0.5e-3, 1.0 + 0.5e-3], upper=1.0) is None
    assert tol.spectrum_violation([-2e-3, 1.0 + 5e-3], upper=1.0) == pytest.approx(5e-3)
    assert tol.spectrum_violation([-2e-3, 7.0]) == pytest.approx(2e-3)
    assert tol.spectrum_violation([0.5, 7.0]) is None


def test_hermitian_rule_is_entrywise_on_the_adjoint_gap():
    tol = Tolerances(eps=1e-3)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(tol.hermitian(np.eye(2) + 0.9e-3 * skew, "operator"),
                                  np.eye(2) + 0.45e-3 * (skew + skew.T))
    with pytest.raises(ValueError, match="operator is not Hermitian within tolerance"):
        tol.hermitian(np.eye(2) + 1.1e-3 * skew, "operator")
    with pytest.raises(ValueError, match="square"):
        tol.hermitian(np.ones((2, 3)), "operator")


# The rank rule: one eigenvalue at c times the rank cutoff, the rest well above it.

def rank_spectrum(c):
    """Unit trace, within [0, 1], lowest eigenvalue c * the rank cutoff of its maximum."""
    low = c * DEFAULT_TOL.rank_cutoff(0.5)
    return [0.5, 0.3, 0.2 - low, low]


def numerical_rank(values, floor=1e-10):
    """Count of `values` above a floor far below sqrt(cutoff) and far above rounding."""
    return int(np.sum(np.abs(values) > floor))


def support_count(w, seed):
    basis = matkit.psd_support(matkit.eigh_desc(spectral_matrix(w, seed))).support_basis
    return basis.shape[1]


def sqrt_count(w, seed):
    root = matkit.psd_sqrt(matkit.eigh_desc(spectral_matrix(w, seed)))
    return numerical_rank(np.linalg.eigvalsh(root))


def schmidt_count(w, seed):
    ket = pure_ket(purify(DensityOperator(spectral_matrix(w, seed))).state)
    return numerical_rank(np.linalg.svd(ket.reshape(D, D), compute_uv=False))


def choi_count(w, seed):
    return len(kraus_from_choi(ChoiMatrix(spectral_matrix(w, seed), d_in=2, d_out=2)).kraus)


def kraus_rank_count(w, seed):
    """Rank of the channel whose Choi matrix is U diag(w) U†: K_k = sqrt(w_k) unvec(u_k)."""
    u = harness.random_unitary(len(w), np.random.default_rng(seed))
    vecs = (u * np.sqrt(w)).T  # row k: vec(K_k), column-stacked
    return kraus_rank(KrausChannel.from_ops(vecs.reshape(-1, 2, 2).transpose(0, 2, 1)))


def premise_count(w, seed):
    root = spectral_matrix(np.sqrt(w), seed)  # same U, so root @ root = F up to rounding
    f = Effect(spectral_matrix(w, seed))
    return verify_premise(KrausChannel.from_ops([root]), f).support_rank


RANK_SITES = [
    ("psd_support", support_count),
    ("psd_sqrt", sqrt_count),
    ("purify", schmidt_count),
    ("kraus_from_choi", choi_count),
    ("kraus_rank", kraus_rank_count),
    ("verify_premise", premise_count),
]

# c in units of the rank cutoff, kept 1e-3 away from the edge at c = 1
RANK_C = st.floats(0.0, 3.0).filter(lambda c: abs(c - 1.0) > 1e-3)


@pytest.mark.parametrize("name, count", RANK_SITES, ids=[s[0] for s in RANK_SITES])
@settings(deadline=None, max_examples=40)
@given(c=RANK_C, seed=st.integers(0, 2 ** 32 - 1))
def test_rank_decision_follows_the_rank_rule(name, count, c, seed):
    w = rank_spectrum(c)
    assert count(w, seed) == DEFAULT_TOL.support(w).sum() == 3 + (c > 1.0)


def test_rank_rule_is_relative_to_the_largest_value_and_gates_no_sign():
    tol = Tolerances(rank_tol_factor=0.1)
    np.testing.assert_array_equal(tol.support([2.0, 0.2, 0.21, -5.0]),
                                  [True, False, True, False])
    np.testing.assert_array_equal(Tolerances(rank_tol_factor=0.0).support([1.0, 1e-300, 0.0]),
                                  [True, True, False])
