import numpy as np
import pytest

from qmeasure import harness, matkit
from qmeasure.errors import TargetMismatchError, UnsupportedMemberError
from qmeasure.measure import probabilities
from qmeasure.states import (BipartiteState, DensityOperator, Ensemble, mix,
                             pure_ket, purify, steering_povm)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def outer(v):
    return np.outer(v, np.asarray(v).conj())


def test_density_operator_invariants():
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian


def test_mix_single_member():
    e = Ensemble.of((1.0, KET0))
    np.testing.assert_allclose(mix(e).mat, outer(KET0), atol=1e-12)


def test_mix_computational_pair():
    e = Ensemble.of((0.5, KET0), (0.5, KET1))
    np.testing.assert_allclose(mix(e).mat, np.eye(2) / 2, atol=1e-12)


def test_mix_zero_plus_pair():
    # direct outer-product sum oracle
    expected = 0.5 * outer(KET0) + 0.5 * outer(PLUS)
    np.testing.assert_allclose(expected, np.array([[3, 1], [1, 1]]) / 4, atol=1e-12)
    e = Ensemble.of((0.5, KET0), (0.5, PLUS))
    np.testing.assert_allclose(mix(e).mat, expected, atol=1e-12)


def test_ensemble_weight_sum_checked():
    with pytest.raises(ValueError):
        Ensemble.of((0.5, KET0), (0.4, KET1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ensemble_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="ensemble weights must be finite"):
        Ensemble.of((bad, KET0), (1.0, KET1))


def test_purify_pure_state():
    psi = purify(DensityOperator(outer(KET0)))
    ket = pure_ket(psi.state)
    expected = np.zeros(4)
    expected[0] = 1.0  # |0> (x) |0>
    np.testing.assert_allclose(np.abs(ket), expected, atol=1e-12)


def test_purify_maximally_mixed_gives_bell():
    psi = purify(DensityOperator(np.eye(2) / 2))
    ket = pure_ket(psi.state)
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    np.testing.assert_allclose(np.abs(ket), np.abs(bell), atol=1e-12)
    np.testing.assert_allclose(psi.reduced(1).mat, np.eye(2) / 2, atol=1e-12)


def test_purify_spectral_weights():
    rho = DensityOperator(np.diag([0.75, 0.25]))
    psi = purify(rho)
    ket = pure_ket(psi.state)
    expected = np.array([np.sqrt(0.75), 0, 0, np.sqrt(0.25)])
    np.testing.assert_allclose(np.abs(ket), expected, atol=1e-12)
    np.testing.assert_allclose(psi.reduced(1).mat, rho.mat, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_purify_round_trips_random_states(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(5):
        rho = harness.random_density(d, rng)
        psi = purify(rho)
        assert np.max(np.abs(psi.reduced(1).mat - rho.mat)) <= 1e-10


def test_purify_matches_the_schmidt_sum():
    # psi = sum_k sqrt(w_k) |k> (x) v_k over the descending spectrum, rank-deficient
    # included, with the eigenvalues under the rank cutoff taken as zero
    rng = np.random.default_rng(44)
    cutoff = matkit.DEFAULT_TOL.rank_cutoff
    for d in (2, 3, 5):
        for rank in range(1, d + 1):
            rho = harness.random_density(d, rng, rank=rank)
            w, v = matkit.eigh_desc(rho.mat)
            expected = sum((np.sqrt(w[k]) if w[k] > cutoff(w.max()) else 0.0)
                           * np.kron(np.eye(d)[k], v[:, k]) for k in range(d))
            np.testing.assert_array_equal(purify(rho).state.mat,
                                          DensityOperator.from_vector(expected).mat)


def test_steering_verifies_on_purifications_of_rank_deficient_states():
    # A sqrt of the rounding noise in rho's kernel gave a Schmidt coefficient of
    # order 1e-8 outside its support, and the steering check failed on seeds 5,
    # 8, 9, 11 and 17.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        psi = purify(harness.random_density(3, rng, rank=2))
        target = harness.steered_ensemble(psi, harness.random_povm(3, 3, rng))
        povm = steering_povm(psi, target)
        for eff, (w, member) in zip(povm.effects, target.members):
            assert np.max(np.abs(steered_member(psi, eff.mat, 3) - w * member.mat)) <= 1e-9


def steered_member(psi, effect_mat, d_b):
    """Partial-trace oracle for what one POVM element leaves on the second factor."""
    lifted = np.kron(effect_mat, np.eye(d_b)) @ psi.state.mat
    return matkit.partial_trace(lifted, psi.dims, keep=1)


def test_steering_computational_target_on_bell():
    psi = BipartiteState.from_vector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    target = Ensemble.of((0.5, KET0), (0.5, KET1))
    povm = steering_povm(psi, target)
    np.testing.assert_allclose(povm.effects[0].mat, outer(KET0), atol=1e-10)
    np.testing.assert_allclose(povm.effects[1].mat, outer(KET1), atol=1e-10)
    for eff, (w, member) in zip(povm.effects, target.members):
        np.testing.assert_allclose(steered_member(psi, eff.mat, 2), w * member.mat,
                                   atol=1e-10)


def test_steering_x_basis_target_on_bell():
    psi = BipartiteState.from_vector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    target = Ensemble.of((0.5, PLUS), (0.5, MINUS))
    povm = steering_povm(psi, target)
    np.testing.assert_allclose(povm.effects[0].mat, outer(PLUS), atol=1e-10)
    np.testing.assert_allclose(povm.effects[1].mat, outer(MINUS), atol=1e-10)


def test_steering_complex_target_verified_by_oracle():
    psi = BipartiteState.from_vector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    y_plus = np.array([1.0, 1.0j]) / np.sqrt(2)
    y_minus = np.array([1.0, -1.0j]) / np.sqrt(2)
    target = Ensemble.of((0.5, y_plus), (0.5, y_minus))
    povm = steering_povm(psi, target)
    for eff, (w, member) in zip(povm.effects, target.members):
        np.testing.assert_allclose(steered_member(psi, eff.mat, 2), w * member.mat,
                                   atol=1e-10)


def test_steering_single_member_gives_identity():
    psi = purify(DensityOperator(outer(KET0)))
    povm = steering_povm(psi, Ensemble.of((1.0, KET0)))
    np.testing.assert_allclose(povm.effects[0].mat, np.eye(2), atol=1e-10)


def test_steering_completeness_and_positivity():
    rng = np.random.default_rng(55)
    for d in (2, 3):
        rho = harness.random_density(d, rng)
        psi = purify(rho)
        target = harness.steered_ensemble(psi, harness.random_povm(d, 3, rng))
        povm = steering_povm(psi, target)
        total = sum(e.mat for e in povm.effects)
        assert np.max(np.abs(total - np.eye(d))) <= 1e-9 * d
        for eff in povm.effects:
            assert np.linalg.eigvalsh(eff.mat).min() >= -1e-9


def test_steering_takes_one_spectrum_the_pure_ket_of_the_state(monkeypatch):
    rng = np.random.default_rng(23)
    u, v = harness.random_unitary(3, rng), harness.random_unitary(3, rng)
    coeff = u[:, :2] @ np.diag(np.sqrt([0.7, 0.3])) @ v[:, :2].T  # Schmidt rank 2 of 3
    psi = BipartiteState.from_vector(coeff.reshape(-1), (3, 3))
    target = harness.steered_ensemble(psi, harness.random_povm(3, 3, rng))
    decomposed = []
    eigh_desc = matkit.eigh_desc
    monkeypatch.setattr(matkit, "eigh_desc",
                        lambda a, *rest: decomposed.append(np.array(a)) or eigh_desc(a, *rest))
    povm = steering_povm(psi, target)
    assert len(decomposed) == 1 and np.array_equal(decomposed[0], psi.state.mat)
    for eff, (w, member) in zip(povm.effects, target.members):
        np.testing.assert_allclose(steered_member(psi, eff.mat, 3), w * member.mat,
                                   atol=1e-10)


def test_bipartite_factor_dimensions_are_stored_as_ints_or_refused():
    """A factor dimension of 2.5 was once truncated to 2, since int() ran before
    the product check, and True was once read as 1; the rule is the one map
    dimensions follow."""
    mixed = DensityOperator(np.eye(4) / 4)
    for dims in ((np.int64(2), 2.0), (2, 2)):
        stored = BipartiteState(dims, mixed).dims
        assert stored == (2, 2) and {type(d) for d in stored} == {int}
    for dims in ((2.5, 2), (0, 4), (-1, -4), (4, 1.0 + 1e-9), (True, 4), (4, np.True_)):
        with pytest.raises(ValueError, match="factor dimensions must be positive integers"):
            BipartiteState(dims, mixed)
    with pytest.raises(ValueError, match="factor dimensions must be positive integers"):
        BipartiteState.from_vector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2.5, 2))


def test_steering_of_a_mixed_state_raises_the_purity_error_first():
    mixed = BipartiteState((2, 2), DensityOperator(np.eye(4) / 4))
    wrong_dimension = Ensemble.of((1.0, np.array([1.0, 0.0, 0.0])))
    with pytest.raises(ValueError, match=r"^state is not pure \(purity 0\.25\)$"):
        steering_povm(mixed, wrong_dimension)


def test_steering_target_mismatch():
    psi = BipartiteState.from_vector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    with pytest.raises(TargetMismatchError):
        steering_povm(psi, Ensemble.of((1.0, KET0)))


def test_steering_unsupported_member():
    psi = purify(DensityOperator(outer(KET0)))
    slack = 5e-10  # keeps the mix within tolerance while the member leaks support
    target = Ensemble.of((1.0 - slack, KET0), (slack, KET1))
    with pytest.raises(UnsupportedMemberError):
        steering_povm(psi, target)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_equal_mix_means_equal_statistics(d):
    # operational core: same density operator, same outcome statistics
    rng = np.random.default_rng(70 + d)
    rho = harness.random_density(d, rng)
    psi = purify(rho)
    e1 = harness.steered_ensemble(psi, harness.random_povm(d, 2, rng))
    e2 = harness.steered_ensemble(psi, harness.random_povm(d, 3, rng))
    assert np.max(np.abs(mix(e1).mat - mix(e2).mat)) <= 1e-10
    for _ in range(34):  # >= 100 POVMs across the three dims
        povm = harness.random_povm(d, int(rng.integers(2, 4)), rng)
        p1 = {label: w for label, w in _ensemble_probs(e1, povm)}
        p2 = {label: w for label, w in _ensemble_probs(e2, povm)}
        for label in p1:
            assert abs(p1[label] - p2[label]) <= 1e-10


def _ensemble_probs(e, povm):
    acc = {}
    for w, member in e.members:
        for label, p in probabilities(member, povm):
            acc[label] = acc.get(label, 0.0) + w * p
    return acc.items()


@pytest.mark.parametrize("d_a", [1, 2, 3])
@pytest.mark.parametrize("d_b", [1, 2, 3])
def test_steered_state_matches_an_index_sum(d_a, d_b):
    """tr_1((F (x) I) rho)[b, c] = sum_{x, y} F[y, x] rho[(x, b), (y, c)]."""
    rng = np.random.default_rng(10 * d_a + d_b)
    psi = BipartiteState((d_a, d_b), harness.random_density(d_a * d_b, rng))
    g = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
    f = g @ g.conj().T
    rho = psi.state.mat
    oracle = np.zeros((d_b, d_b), dtype=complex)
    for b in range(d_b):
        for c in range(d_b):
            oracle[b, c] = sum(f[y, x] * rho[x * d_b + b, y * d_b + c]
                               for x in range(d_a) for y in range(d_a))
    steered = psi.steered(f)
    np.testing.assert_allclose(steered, oracle, atol=1e-13)
    assert np.trace(steered) == pytest.approx(np.trace(np.kron(f, np.eye(d_b)) @ rho),
                                              abs=1e-13)
