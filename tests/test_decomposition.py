import numpy as np
import pytest

from qmeasure import harness, matkit
from qmeasure.channels import (KrausChannel, apply_map, choi_from_map,
                               completely_depolarizing, identity_channel,
                               unitary_channel)
from qmeasure.errors import PremiseViolatedError
from qmeasure.decomposition import (decompose, kraus_rank, reconstruction_residual,
                            verify_premise)
from qmeasure.matkit import Tolerances
from qmeasure.measure import Effect, induced_povm
from qmeasure.states import DensityOperator


def luders_map(effect_mat):
    root = matkit.psd_sqrt(effect_mat)
    return KrausChannel.from_ops([root])


def compose_with_luders(e0, effect_mat):
    root = matkit.psd_sqrt(effect_mat)
    return KrausChannel.from_ops([k @ root for k in e0.kraus])


def maps_equal(a, b, atol):
    return np.max(np.abs(choi_from_map(a).mat - choi_from_map(b).mat)) <= atol


def test_premise_report_carries_the_support_of_f_outside_its_dict():
    rng = np.random.default_rng(17)
    f = harness.random_effect(3, rng, zero_eigenvalues=1)
    report = verify_premise(compose_with_luders(harness.random_cptp(3, 3, 2, rng), f.mat), f)
    assert set(report.to_dict()) == {"trace_residual", "kernel_residual", "cross_residual",
                                     "support_rank", "borderline_eigenvalues"}
    expected = matkit.psd_support(f.mat)
    for got, want in zip(report.support, expected):
        np.testing.assert_array_equal(got, want)


def test_premise_passes_for_luders_pair():
    rng = np.random.default_rng(1)
    f = harness.random_effect(3, rng)
    report = verify_premise(luders_map(f.mat), f)
    assert report.trace_residual <= 1e-12
    assert report.kernel_residual <= 1e-12
    assert report.cross_residual <= 1e-12


def test_premise_rejects_mismatched_effect():
    rng = np.random.default_rng(2)
    f = harness.random_effect(2, rng)
    g = Effect(np.diag([1.0, 0.25]))
    with pytest.raises(PremiseViolatedError):
        verify_premise(luders_map(f.mat), g)


@pytest.mark.parametrize("c, rejected", [(6e-9, True), (2e-9, False)])
def test_premise_pairing_is_held_in_spectral_norm(c, rejected):
    # B = {sqrt(F + cJ)} with J the all-ones matrix: sum K†K - F = cJ has entries
    # c but spectral norm 4c, against the bound PREMISE_SLACK * eps = 1e-8.
    f = Effect(np.diag([0.2, 0.4, 0.6, 0.8]))
    b = luders_map(f.mat + c * np.ones((4, 4)))
    if rejected:
        with pytest.raises(PremiseViolatedError, match="spectral residual 2.4"):
            verify_premise(b, f)
    else:
        assert verify_premise(b, f).trace_residual == pytest.approx(4 * c, rel=1e-6)


def test_premise_vanishing_terms_for_rank_deficient_effect():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        f = harness.random_effect(d, rng, zero_eigenvalues=int(rng.integers(1, d)))
        e0 = harness.random_cptp(d, d, 2, rng)
        b = compose_with_luders(e0, f.mat)
        report = verify_premise(b, f)
        assert report.kernel_residual <= 1e-10
        assert report.cross_residual <= 1e-10


def test_premise_bounds_cover_sampled_terms_of_perturbed_map():
    # a 1e-5 perturbation makes both terms nonzero; eps = 1e-3 lets the
    # trace pairing still pass, so the bounds can be compared with samples
    tol = Tolerances(eps=1e-3)
    rng = np.random.default_rng(17)
    for d in (2, 3, 4, 5):
        f = harness.random_effect(d, rng, zero_eigenvalues=d // 2)
        exact = compose_with_luders(harness.random_cptp(d, d, 2, rng), f.mat)
        b = KrausChannel.from_ops(
            [k + 1e-5 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
             for k in exact.kraus])
        report = verify_premise(b, f, tol=tol)
        assert report.kernel_residual > 1e-13 and report.cross_residual > 1e-8
        supp = matkit.psd_support(f.mat, tol=tol)
        for _ in range(50):
            rho = harness.random_density(d, rng).mat
            kern = supp.kernel @ rho @ supp.kernel
            cross = supp.support @ rho @ supp.kernel + supp.kernel @ rho @ supp.support
            assert matkit.frob_norm(apply_map(b, kern)) <= report.kernel_residual
            assert matkit.frob_norm(apply_map(b, cross)) <= report.cross_residual


def test_decompose_full_rank_luders_gives_identity():
    f = Effect(np.diag([0.9, 0.6]))
    e = decompose(luders_map(f.mat), f)
    assert maps_equal(e, identity_channel(2), 1e-10)


def test_decompose_unitary_after_luders_recovers_conjugation():
    rng = np.random.default_rng(5)
    u = harness.random_unitary(3, rng)
    f = Effect(np.diag([0.9, 0.5, 0.2]))  # full rank: no kernel gauge freedom
    b = KrausChannel.from_ops([u @ matkit.psd_sqrt(f.mat)])
    e = decompose(b, f)
    assert maps_equal(e, unitary_channel(u), 1e-9)


def test_decompose_atom_outcome():
    inst = harness.atom_demo()
    b1 = inst.channel("1")
    f1 = induced_povm(inst).effect("1")
    e = decompose(b1, f1)
    assert reconstruction_residual(b1, f1, e) <= 1e-10
    # the conditional channel resets the excited subspace to the ground state
    ground = np.zeros((3, 3), dtype=complex)
    ground[0, 0] = 1.0
    for level in (1, 2):
        excited = np.zeros((3, 3), dtype=complex)
        excited[level, level] = 1.0
        np.testing.assert_allclose(apply_map(e, excited), ground, atol=1e-10)


def test_decompose_requires_premise():
    rng = np.random.default_rng(7)
    f = harness.random_effect(2, rng)
    wrong = Effect(np.eye(2) * 0.5)
    with pytest.raises(PremiseViolatedError):
        decompose(luders_map(f.mat), wrong)


def test_kraus_rank_single_operator():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert kraus_rank(KrausChannel.from_ops([m])) == 1


def test_kraus_rank_atom_reset_is_two():
    inst = harness.atom_demo()
    assert kraus_rank(inst.channel("1")) == 2


def test_kraus_rank_depolarizing():
    assert kraus_rank(completely_depolarizing(2)) == 4


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_round_trip_random_pairs(d):
    rng = np.random.default_rng(60 + d)
    for trial in range(10):
        zero = int(rng.integers(0, d))  # includes rank-deficient effects
        f = harness.random_effect(d, rng, zero_eigenvalues=zero)
        e0 = harness.random_cptp(d, d, int(rng.integers(1, d + 1)), rng)
        b = compose_with_luders(e0, f.mat)
        e = decompose(b, f)
        assert reconstruction_residual(b, f, e, seed=trial) <= 1e-9
        assert np.max(np.abs(e.completeness() - np.eye(d))) <= 1e-9


def test_every_instrument_outcome_satisfies_premise():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        inst = harness.random_instrument(d, int(rng.integers(2, 4)), 2, rng)
        povm = induced_povm(inst)
        for label, channel in inst.outcomes:
            report = verify_premise(channel, povm.effect(label))
            assert report.trace_residual <= 1e-10


def test_decomposed_channel_is_cptp():
    rng = np.random.default_rng(13)
    f = harness.random_effect(4, rng, zero_eigenvalues=2)
    e0 = harness.random_cptp(4, 4, 2, rng)
    b = compose_with_luders(e0, f.mat)
    e = decompose(b, f)
    assert choi_from_map(e).is_cp()
    assert e.is_trace_preserving()


def test_reconstruction_not_channel_equality():
    # the kernel sector is gauge: E need not equal the channel that built B
    rng = np.random.default_rng(15)
    f = harness.random_effect(3, rng, zero_eigenvalues=1)
    e0 = harness.random_cptp(3, 3, 2, rng)
    b = compose_with_luders(e0, f.mat)
    e = decompose(b, f)
    assert reconstruction_residual(b, f, e) <= 1e-9
    root = matkit.psd_sqrt(f.mat)
    rng2 = np.random.default_rng(16)
    for _ in range(5):
        rho = harness.random_density(3, rng2).mat
        compressed = root @ rho @ root
        np.testing.assert_allclose(apply_map(e, compressed),
                                   apply_map(b, rho), atol=1e-9)
