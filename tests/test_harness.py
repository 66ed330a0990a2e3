from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qmeasure import decomposition, harness, matkit
from qmeasure.cli import main
from qmeasure.errors import MixMismatchError
from qmeasure.harness import (basis_povm, check_ensemble_equivalence,
                              check_no_signaling, correlated_env_demo,
                              eigen_ensemble, joint_distribution,
                              nonlinear_square_map, run_lemma_suite,
                              run_linearity_suite, run_nosignal_suite,
                              stern_gerlach_demo)
from qmeasure.decomposition import decompose, kraus_rank, reconstruction_residual
from qmeasure.measure import (apply_instrument, from_generalized, fuse_sequential,
                              induced_povm, luders_from_povm)
from qmeasure.states import BipartiteState, DensityOperator, Ensemble, mix, purify

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def outer(v):
    return np.outer(v, np.asarray(v).conj())


def test_no_signaling_bell_z_measurement():
    bell = BipartiteState.from_vector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    z_inst = luders_from_povm(basis_povm(2))
    report = check_no_signaling(bell, z_inst)
    assert report.residual <= 1e-12
    assert report.passed


def test_no_signaling_product_state():
    rng = np.random.default_rng(1)
    rho = np.kron(harness.random_density(2, rng).mat, harness.random_density(2, rng).mat)
    state = BipartiteState((2, 2), DensityOperator(rho))
    inst = harness.random_instrument(2, 3, 2, rng)
    assert check_no_signaling(state, inst).residual <= 1e-12


def test_no_signaling_random_three_by_three():
    rng = np.random.default_rng(2)
    state = BipartiteState((3, 3), harness.random_density(9, rng))
    inst = harness.random_instrument(3, 2, 2, rng)
    assert check_no_signaling(state, inst).residual <= 1e-10


def test_no_signaling_gate_allows_the_completeness_defect_the_instrument_was_built_with():
    """sum K†K = diag(1 + 1.5e-9, 1) is within the instrument's eps * d = 2e-9, and
    moves the marginal of |00> by exactly that defect, which is no signaling."""
    k0 = np.diag([np.sqrt(1 + 0.9e-9), 0.0])
    k1 = np.diag([np.sqrt(0.6e-9), 1.0])
    inst = from_generalized([k0, k1])
    state = BipartiteState.from_vector(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    report = check_no_signaling(state, inst)
    assert report.residual > 1e-9
    assert abs(report.residual - 1.5e-9) <= 1e-15
    assert report.passed


def tensor_product_marginal_gap(state, outcomes):
    """Bob's marginal after vs before, by lifting each Kraus operator with tensor_product."""
    d_a, d_b = state.dims
    rho = state.state.mat
    before = matkit.partial_trace(rho, state.dims, keep=1)
    after = np.zeros_like(before)
    for _, ch in outcomes:
        for k in ch.kraus:
            lifted = matkit.tensor_product(k, np.eye(d_b))
            after += matkit.partial_trace(lifted @ rho @ lifted.conj().T, (ch.d_out, d_b), keep=1)
    return matkit.trace_norm(after - before)


@pytest.mark.parametrize("dims, d_out", [((2, 3), 2), ((3, 2), 3), ((2, 2), 3), ((3, 3), 2)])
def test_no_signaling_matches_the_tensor_product_loop(dims, d_out):
    rng = np.random.default_rng(sum(dims) + 10 * d_out)
    state = BipartiteState(dims, harness.random_density(dims[0] * dims[1], rng))
    inst = harness.random_instrument(dims[0], 3, 2, rng, d_out=d_out)
    report = check_no_signaling(state, inst)
    assert report.passed
    assert abs(report.residual - tensor_product_marginal_gap(state, inst.outcomes)) <= 1e-12
    # One outcome alone is trace decreasing, so Bob's marginal moves by O(1) and the
    # comparison is not between two rounding errors.
    part = SimpleNamespace(d_in=inst.d_in, outcomes=inst.outcomes[:1])
    gap = tensor_product_marginal_gap(state, part.outcomes)
    assert gap > 1e-3
    assert abs(check_no_signaling(state, part).residual - gap) <= 1e-12


def test_no_signaling_suite_passes():
    report = run_nosignal_suite(trials=50, seed=42, dims=(2, 3))
    assert report.passed
    assert report.max_residual <= 1e-9


def two_step_oracle(e, first, second):
    """Hand-rolled two-instrument branch enumeration, independent of joint_distribution."""
    dist = {}
    for w, member in e.members:
        for r1 in apply_instrument(first, member):
            if r1.state is None:
                continue
            for r2 in apply_instrument(second, r1.state):
                key = (r1.label, r2.label)
                dist[key] = dist.get(key, 0.0) + w * r1.probability * r2.probability
    return dist


def x_luders():
    from qmeasure.measure import Povm
    return luders_from_povm(Povm.from_effects([outer(PLUS), outer(MINUS)],
                                              labels=["+", "-"]))


def test_equal_mix_ensembles_agree_on_z_then_x_program():
    e1 = Ensemble.of((0.5, KET0), (0.5, KET1))
    e2 = Ensemble.of((0.5, PLUS), (0.5, MINUS))
    program = [luders_from_povm(basis_povm(2)), x_luders()]
    report = check_ensemble_equivalence(e1, e2, program)
    assert report.passed
    assert report.max_difference <= 1e-10
    # cross-check joint_distribution against the independent two-step oracle
    d1 = joint_distribution(e1, program)
    oracle = two_step_oracle(e1, program[0], program[1])
    for key, val in oracle.items():
        assert abs(d1.get(key, 0.0) - val) <= 1e-12


def test_mix_gap_the_mix_check_accepts_is_no_witness():
    # Entrywise 0.9e-9 passes the mix check; X statistics then differ by 0.9e-9,
    # within the trace-norm distance 1.8e-9 of the two averages.
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    e1 = Ensemble(((1.0, DensityOperator(np.eye(2) / 2)),))
    e2 = Ensemble(((1.0, DensityOperator(np.eye(2) / 2 + 0.9e-9 * x)),))
    report = check_ensemble_equivalence(e1, e2, [x_luders()])
    assert report.passed and report.witness is None
    assert report.max_difference == pytest.approx(9e-10, rel=1e-6)


def test_identical_ensembles_trivially_agree():
    e = Ensemble.of((0.3, KET0), (0.7, PLUS))
    report = check_ensemble_equivalence(e, e, [luders_from_povm(basis_povm(2))])
    assert report.passed


def test_mix_mismatch_rejected():
    e1 = Ensemble.of((1.0, KET0))
    e2 = Ensemble.of((1.0, KET1))
    with pytest.raises(MixMismatchError):
        check_ensemble_equivalence(e1, e2, [])


def test_square_map_fixes_pure_member_ensembles():
    # pure states are fixed points of rho -> rho^2/tr(rho^2), so ensembles of
    # pure states cannot expose it: the two distributions provably coincide
    e1 = Ensemble.of((0.5, KET0), (0.5, KET1))
    e2 = Ensemble.of((0.5, PLUS), (0.5, MINUS))
    program = [nonlinear_square_map, luders_from_povm(basis_povm(2))]
    report = check_ensemble_equivalence(e1, e2, program)
    assert report.passed
    assert report.max_difference <= 1e-12


def test_square_map_detected_from_coarse_vs_eigen_pair():
    rho = DensityOperator(np.diag([0.75, 0.25]))
    coarse = Ensemble(((1.0, rho),))
    fine = eigen_ensemble(rho)
    program = [nonlinear_square_map, luders_from_povm(basis_povm(2))]
    report = check_ensemble_equivalence(coarse, fine, program)
    assert not report.passed
    # oracle: rho^2/tr(rho^2) = diag(0.9, 0.1) vs the untouched eigenmixture diag(0.75, 0.25)
    assert abs(report.max_difference - 0.15) <= 1e-12


def test_linearity_suite_clean_and_with_injection():
    clean = run_linearity_suite(trials=20, seed=7, dims=(2, 3))
    assert clean.passed
    assert clean.max_residual <= 1e-10
    injected = run_linearity_suite(trials=20, seed=7, dims=(2, 3),
                                   nonlinear=nonlinear_square_map)
    assert not injected.passed
    assert injected.witnesses


def test_lemma_suite_passes():
    report = run_lemma_suite(trials=40, seed=5, dims=(2, 3, 4, 5))
    assert report.passed
    assert report.max_residual <= 1e-9
    assert report.details["max_vanishing"] <= 1e-10


def test_lemma_trial_whose_decomposition_fails_a_gate_is_a_witness(monkeypatch):
    monkeypatch.setattr(decomposition, "reconstruction_residual", lambda *args, **kw: 1.0)
    report = run_lemma_suite(trials=2, seed=5, dims=(2, 3))
    assert not report.passed
    dim = int(np.random.default_rng(5).choice((2, 3)))
    assert report.witnesses[0] == {
        "trial": 0, "seed": 5, "dim": dim,
        "error": f"reconstruction residual 1.000e+00 exceeds {1e-9 * dim:.3e}"}
    assert [w["trial"] for w in report.witnesses] == [0, 1]
    assert main(["suite", "lemma", "--trials", "2", "--seed", "5", "--dims", "2,3"]) == 3


def test_correlated_env_demo_branches():
    report = correlated_env_demo()
    np.testing.assert_allclose(report.initial_system, np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(report.initial_environment, np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(report.post_system_first, outer(KET1), atol=1e-12)
    np.testing.assert_allclose(report.post_system_second, outer(KET0), atol=1e-12)
    assert report.initial_residual <= 1e-12
    assert report.distinguishability > 1.9
    assert "opposite assignment" in report.note


def test_stern_gerlach_outcomes():
    inst = stern_gerlach_demo()
    povm = induced_povm(inst)
    np.testing.assert_allclose(povm.effect("+z").mat, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(povm.effect("-z").mat, np.diag([0.0, 1.0]), atol=1e-12)
    for _, ch in inst.outcomes:
        assert kraus_rank(ch) == 1
    # phases drop out of the post-measurement density operators
    results = apply_instrument(inst, DensityOperator(outer(PLUS)))
    for r, expected in zip(results, (outer(KET0), outer(KET1))):
        assert abs(r.probability - 0.5) <= 1e-12
        np.testing.assert_allclose(r.state.mat, expected, atol=1e-12)


def test_stern_gerlach_decomposes_to_unitary_conjugation():
    inst = stern_gerlach_demo()
    povm = induced_povm(inst)
    for label, ch in inst.outcomes:
        eff = povm.effect(label)
        conditional = decompose(ch, eff).channel
        assert reconstruction_residual(ch, eff, conditional) <= 1e-10


def test_fused_program_matches_step_by_step():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = harness.random_instrument(2, 2, 1, rng)
        b = harness.random_instrument(2, 2, 2, rng)
        c = harness.random_instrument(2, 2, 1, rng)
        fused = fuse_sequential(fuse_sequential(a, b), c)
        rho = harness.random_density(2, rng)
        stepwise = {}
        for r1 in apply_instrument(a, rho):
            if r1.state is None:
                continue
            for r2 in apply_instrument(b, r1.state):
                if r2.state is None:
                    continue
                for r3 in apply_instrument(c, r2.state):
                    key = f"{r1.label}·{r2.label}·{r3.label}"
                    stepwise[key] = (r1.probability * r2.probability * r3.probability)
        fused_probs = {r.label: r.probability for r in apply_instrument(fused, rho)}
        for key, val in stepwise.items():
            assert abs(fused_probs[key] - val) <= 1e-9


def test_steered_ensemble_members_average_to_marginal():
    rng = np.random.default_rng(13)
    rho = harness.random_density(3, rng)
    psi = purify(rho)
    ens = harness.steered_ensemble(psi, harness.random_povm(3, 4, rng))
    assert np.max(np.abs(mix(ens).mat - rho.mat)) <= 1e-10


def test_random_generators_are_reproducible():
    a = harness.random_cptp(3, 3, 2, np.random.default_rng(99))
    b = harness.random_cptp(3, 3, 2, np.random.default_rng(99))
    for k1, k2 in zip(a.kraus, b.kraus):
        np.testing.assert_array_equal(k1, k2)


def plant_nosignal_failures(monkeypatch):
    """Trials whose first factor has dimension 3 fail the check."""
    check = harness.check_no_signaling
    monkeypatch.setattr(harness, "check_no_signaling", lambda state, inst, tol: replace(
        check(state, inst, tol), passed=state.dims[0] != 3))


def plant_linearity_failures(monkeypatch):
    """Trials on dimension 3 return a witness."""
    check = harness.check_ensemble_equivalence

    def planted(e1, e2, program, tol):
        report = check(e1, e2, program, tol=tol)
        return report if e1.dim != 3 else replace(report, witness={"dim": 3}, passed=False)

    monkeypatch.setattr(harness, "check_ensemble_equivalence", planted)


def plant_lemma_failures(monkeypatch):
    """Dimension 3 fails decompose's reconstruction gate (an error witness);
    dimension 2 passes it above eps (a residual witness)."""
    residual = decomposition.reconstruction_residual
    planted = {2: 1.5e-9, 3: 1.0}
    monkeypatch.setattr(decomposition, "reconstruction_residual",
                        lambda b, f, e, **kw: planted.get(f.dim) or residual(b, f, e, **kw))


@pytest.mark.parametrize("run, plant, dims", [
    (run_nosignal_suite, plant_nosignal_failures, (2, 3)),
    (run_linearity_suite, plant_linearity_failures, (2, 3)),
    (run_lemma_suite, plant_lemma_failures, (2, 3, 4)),
])
def test_a_run_of_k_trials_is_the_merge_of_k_one_trial_runs(run, plant, dims, monkeypatch):
    """Trial i of a run at `seed` is the one trial of a run at seed + i."""
    plant(monkeypatch)
    trials, seed = 8, 11
    full = run(trials=trials, seed=seed, dims=dims)
    singles = [run(trials=1, seed=seed + i, dims=dims) for i in range(trials)]
    for i, single in enumerate(singles):
        assert all(w["trial"] == 0 and w["seed"] == seed + i for w in single.witnesses)
    assert full.max_residual == max(s.max_residual for s in singles)
    assert full.witnesses == [{**w, "trial": i}
                              for i, s in enumerate(singles) for w in s.witnesses]
    assert 0 < len(full.witnesses) < trials
    assert full.passed is False
    assert (full.trials, full.seed) == (trials, seed)
    if run is run_lemma_suite:
        assert {"error", "reconstruction"} <= {k for w in full.witnesses for k in w}
        assert 0.0 < full.details["max_vanishing"] == max(s.details["max_vanishing"]
                                                          for s in singles)
    else:
        assert full.details == singles[0].details

