import dataclasses
import re

import numpy as np
import pytest

from qmeasure import decomposition, harness, matkit
from qmeasure.channels import (KrausChannel, apply_map, choi_from_map,
                               completely_depolarizing, identity_channel,
                               unitary_channel)
from qmeasure.errors import PremiseViolatedError
from qmeasure.decomposition import (RECONSTRUCTION_STATES, Decomposition, decompose,
                                    kraus_rank, reconstruction_residual, verify_premise)
from qmeasure.matkit import Tolerances
from qmeasure.measure import Effect, induced_povm
from qmeasure.states import DensityOperator


def luders_map(effect_mat):
    root = matkit.psd_sqrt(matkit.eigh_desc(effect_mat))
    return KrausChannel.from_ops([root])


def compose_with_luders(e0, effect_mat):
    root = matkit.psd_sqrt(matkit.eigh_desc(effect_mat))
    return KrausChannel.from_ops([k @ root for k in e0.kraus])


def maps_equal(a, b, atol):
    return np.max(np.abs(choi_from_map(a).mat - choi_from_map(b).mat)) <= atol


def test_premise_report_carries_the_support_of_f_outside_its_dict():
    rng = np.random.default_rng(17)
    f = harness.random_effect(3, rng, zero_eigenvalues=1)
    report = verify_premise(compose_with_luders(harness.random_cptp(3, 3, 2, rng), f.mat), f)
    assert set(report.to_dict()) == {"trace_residual", "kernel_residual", "cross_residual",
                                     "support_rank", "borderline_eigenvalues"}
    expected = matkit.psd_support(matkit.eigh_desc(f.mat))
    for got, want in zip(f.support, expected):
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
        f = harness.random_effect(d, rng, zero_eigenvalues=d // 2, tol=tol)
        exact = compose_with_luders(harness.random_cptp(d, d, 2, rng), f.mat)
        b = KrausChannel.from_ops(
            [k + 1e-5 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
             for k in exact.kraus])
        report = verify_premise(b, f)
        assert report.kernel_residual > 1e-13 and report.cross_residual > 1e-8
        supp = matkit.psd_support(matkit.eigh_desc(f.mat, tol), tol=tol)
        support, kernel = (v @ v.conj().T for v in (supp.support_basis, supp.kernel_basis))
        for _ in range(50):
            rho = harness.random_density(d, rng).mat
            kern = kernel @ rho @ kernel
            cross = support @ rho @ kernel + kernel @ rho @ support
            assert np.linalg.norm(apply_map(b, kern)) <= report.kernel_residual
            assert np.linalg.norm(apply_map(b, cross)) <= report.cross_residual


def test_decompose_full_rank_luders_gives_identity():
    f = Effect(np.diag([0.9, 0.6]))
    e = decompose(luders_map(f.mat), f).channel
    assert maps_equal(e, identity_channel(2), 1e-10)


def test_decompose_unitary_after_luders_recovers_conjugation():
    rng = np.random.default_rng(5)
    u = harness.random_unitary(3, rng)
    f = Effect(np.diag([0.9, 0.5, 0.2]))  # full rank: no kernel gauge freedom
    b = KrausChannel.from_ops([u @ matkit.psd_sqrt(matkit.eigh_desc(f.mat))])
    e = decompose(b, f).channel
    assert maps_equal(e, unitary_channel(u), 1e-9)


def test_decompose_atom_outcome():
    inst = harness.atom_demo()
    b1 = inst.channel("1")
    f1 = induced_povm(inst).effect("1")
    e = decompose(b1, f1).channel
    assert reconstruction_residual(b1, f1, e) <= 1e-10
    # the conditional channel resets the excited subspace to the ground state
    ground = np.zeros((3, 3), dtype=complex)
    ground[0, 0] = 1.0
    for level in (1, 2):
        excited = np.zeros((3, 3), dtype=complex)
        excited[level, level] = 1.0
        np.testing.assert_allclose(apply_map(e, excited), ground, atol=1e-10)


def test_decompose_returns_one_frozen_record_of_the_facts_it_checked():
    rng = np.random.default_rng(21)
    f = harness.random_effect(3, rng, zero_eigenvalues=1)
    b = compose_with_luders(harness.random_cptp(3, 3, 2, rng), f.mat)
    rec = decompose(b, f)
    assert isinstance(rec, Decomposition)
    assert rec.premise == verify_premise(b, f)
    assert (rec.reconstruction_residual.hex()
            == reconstruction_residual(b, f, rec.channel).hex())
    assert (rec.completeness_residual.hex()
            == f.tol.completeness_residual(rec.channel.completeness()).hex())
    assert rec.kraus is rec.channel.kraus
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.channel = identity_channel(3)


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


def test_kraus_rank_takes_no_spectrum_larger_than_n_by_n(monkeypatch):
    rng = np.random.default_rng(4)
    channels = [(harness.random_cptp(3, 2, 2, rng), 2), (harness.random_cptp(64, 64, 4, rng), 4)]
    choi_calls, shapes = [], []
    choi = decomposition.choi_from_map

    def counted_choi(m):
        choi_calls.append(m)
        return choi(m)

    def recorded(solver):
        def call(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return solver(a, *args, **kwargs)
        return call

    monkeypatch.setattr(decomposition, "choi_from_map", counted_choi)
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    for channel, rank in channels:
        choi_calls.clear()
        shapes.clear()
        assert kraus_rank(channel) == rank
        assert choi_calls == [channel]
        n = len(channel.kraus)
        assert shapes and all(s[-2] <= n and s[-1] <= n for s in shapes)


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
        e = decompose(b, f).channel
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
    e = decompose(b, f).channel
    assert choi_from_map(e).is_cp()
    assert e.is_trace_preserving()


def test_reconstruction_not_channel_equality():
    # the kernel sector is gauge: E need not equal the channel that built B
    rng = np.random.default_rng(15)
    f = harness.random_effect(3, rng, zero_eigenvalues=1)
    e0 = harness.random_cptp(3, 3, 2, rng)
    b = compose_with_luders(e0, f.mat)
    e = decompose(b, f).channel
    assert reconstruction_residual(b, f, e) <= 1e-9
    root = matkit.psd_sqrt(matkit.eigh_desc(f.mat))
    rng2 = np.random.default_rng(16)
    for _ in range(5):
        rho = harness.random_density(3, rng2).mat
        compressed = root @ rho @ root
        np.testing.assert_allclose(apply_map(e, compressed),
                                   apply_map(b, rho), atol=1e-9)


def per_state_reconstruction_residual(b, f, e, seed=11):
    """The per-state loop over the Wishart stack reconstruction_residual draws."""
    rng = np.random.default_rng(seed)
    shape = (RECONSTRUCTION_STATES, f.dim, f.dim)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    root = matkit.psd_sqrt(matkit.eigh_desc(f.mat))
    worst = 0.0
    for gi in g:
        rho = gi @ gi.conj().T
        rho = rho / np.trace(rho).real
        compressed = root @ rho @ root
        gap = (sum(k @ rho @ k.conj().T for k in b.kraus)
               - sum(k @ compressed @ k.conj().T for k in e.kraus))
        worst = max(worst, matkit.trace_norm(gap))
    return worst


def test_reconstruction_residual_matches_a_per_state_loop_and_sees_a_perturbed_map():
    rng = np.random.default_rng(17)
    d = 4
    f = harness.random_effect(d, rng, zero_eigenvalues=1)
    b = compose_with_luders(harness.random_cptp(d, d, 2, rng), f.mat)
    e = decompose(b, f).channel
    assert reconstruction_residual(b, f, e) <= 1e-9 * d
    assert per_state_reconstruction_residual(b, f, e) <= 1e-9 * d
    ops = np.array(e.kraus)
    ops[0] *= 1 + 1e-6  # the first compressed operator of B
    bad = KrausChannel(ops, d_in=d, d_out=d)
    for seed in (11, 3):
        residual = reconstruction_residual(b, f, bad, seed=seed)
        assert residual > 1e-9 * d
        reference = per_state_reconstruction_residual(b, f, bad, seed)
        assert abs(residual - reference) <= 1e-12


def test_premise_is_held_to_the_tolerance_of_the_effect():
    # sum K†K - F = cJ has spectral norm 4c = 4e-5: past PREMISE_SLACK * eps at
    # the default eps, inside it at eps = 1e-3
    mat = np.diag([0.2, 0.4, 0.6, 0.8])
    b = luders_map(mat + 1e-5 * np.ones((4, 4)))
    with pytest.raises(PremiseViolatedError, match="spectral residual 4.0"):
        verify_premise(b, Effect(mat))
    report = verify_premise(b, Effect(mat, Tolerances(eps=1e-3)))
    assert report.trace_residual == pytest.approx(4e-5, rel=1e-6)


@pytest.mark.parametrize("delta, accepted", [(1e-3, True), (1.2e-2, False)])
def test_checked_decompose_gates_at_the_eps_times_d_of_the_effect(delta, accepted):
    # K = sqrt(F) + delta |0><1| leaks into the kernel |1> of F = diag(1/2, 0):
    # the pairing misses by about delta / sqrt(2), within 10 eps at eps = 1e-3,
    # and E(sqrt(F) rho sqrt(F)) loses B's cross terms, of order delta
    mat = np.diag([0.5, 0.0])
    k = matkit.psd_sqrt(matkit.eigh_desc(mat))
    k[0, 1] = delta
    b = KrausChannel.from_ops([k])
    with pytest.raises(PremiseViolatedError):
        decompose(b, Effect(mat))
    f = Effect(mat, Tolerances(eps=1e-3))
    bound = f.tol.eps * f.dim
    if accepted:
        residual = decompose(b, f).reconstruction_residual
        assert 1e-9 * f.dim < residual <= bound
    else:
        with pytest.raises(ArithmeticError, match="reconstruction residual") as raised:
            decompose(b, f)
        named = re.fullmatch(r"reconstruction residual (\S+) exceeds (\S+)", str(raised.value))
        residual, named_bound = float(named[1]), float(named[2])
        assert residual > bound
        assert named_bound == pytest.approx(bound, rel=1e-3)


def test_the_lemma_path_takes_each_spectral_split_of_f_once(monkeypatch):
    calls = {"psd_support": 0, "psd_sqrt": 0}
    decomposed = []

    def counted(name):
        inner = getattr(matkit, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(matkit, name, counted(name))
    eigh_desc = matkit.eigh_desc
    monkeypatch.setattr(matkit, "eigh_desc",
                        lambda a, *rest: decomposed.append(np.array(a)) or eigh_desc(a, *rest))
    rng = np.random.default_rng(19)
    f = harness.random_effect(3, rng, zero_eigenvalues=1)
    b = KrausChannel(harness.random_cptp(3, 3, 2, rng).kraus @ f.root, d_in=3, d_out=3)
    f = Effect(f.mat, f.tol)  # a fresh effect: its split is taken below
    calls.update(psd_support=0, psd_sqrt=0)
    decomposed.clear()
    verify_premise(b, f)
    decompose(b, f)
    assert calls == {"psd_support": 1, "psd_sqrt": 1}
    # one spectrum of F serves the support split, its kernel basis, the root and the
    # premise's rank; nothing else on the lemma path is diagonalised
    assert len(decomposed) == 1
    assert sum(np.array_equal(a, f.mat) for a in decomposed) == 1
    for array in (f.root, *f.support, *f.spectrum):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def _reference_channel(b: KrausChannel, f: Effect) -> KrausChannel:
    """E with its kernel block built on the unit-eigenvalue columns of eigh_desc(P_ker),
    P_ker = I - P_sup taken from F's spectrum: the construction `decompose` used before
    it read F's own kernel eigenvectors."""
    w, v = f.spectrum
    vs = v[:, w > f.tol.rank_cutoff(float(w.max()))]
    p_ker = matkit.hermitian_part(np.eye(f.dim) - matkit.hermitian_part(vs @ vs.conj().T))
    kernel_w, kernel_v = matkit.eigh_desc(p_ker, f.tol)
    bras = kernel_v[:, kernel_w > 0.5].conj().T
    rows = np.eye(b.d_out)
    kernel_ops = [np.outer(rows[a], bra) / np.sqrt(b.d_out) for bra in bras for a in range(b.d_out)]
    return KrausChannel.from_ops([*(b.kraus @ f.support.pinv_sqrt), *kernel_ops])


@pytest.mark.parametrize("d", [3, 5, 8])
def test_kernel_block_on_the_eigenvectors_of_f_is_the_reference_channel(d):
    rng = np.random.default_rng(40 + d)
    f = harness.random_effect(d, rng, zero_eigenvalues=d // 2)
    b = compose_with_luders(harness.random_cptp(d, 4, 2, rng), f.mat)
    e = decompose(b, f).channel
    gap = choi_from_map(e).mat - choi_from_map(_reference_channel(b, f)).mat
    assert matkit.trace_norm(gap) <= 1e-12
    # the kernel block alone is rho -> tr(P_ker rho) I / d_out
    w, v = f.spectrum
    vk = v[:, w <= f.tol.rank_cutoff(float(w.max()))]
    assert vk.shape[1] == d // 2
    block = KrausChannel(e.kraus[len(b.kraus):], d_in=d, d_out=4)
    rhos = np.stack([harness.random_density(d, rng).mat for _ in range(5)])
    weights = np.trace(vk.conj().T @ rhos @ vk, axis1=-2, axis2=-1)
    np.testing.assert_allclose(apply_map(block, rhos),
                               weights[:, None, None] * np.eye(4) / 4, atol=1e-12)
