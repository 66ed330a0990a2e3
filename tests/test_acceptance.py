"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from qmeasure import harness, matkit
from qmeasure.channels import (KrausChannel, apply_map, choi_from_map,
                               kraus_from_choi, pullback_povm,
                               transpose_superoperator)
from qmeasure.errors import NotCPError
from qmeasure.harness import (correlated_env_demo, find_nonlinearity_witness,
                              nonlinear_square_map, run_nosignal_suite)
from qmeasure.decomposition import decompose, kraus_rank, reconstruction_residual
from qmeasure.measure import (Effect, apply_instrument, fuse_sequential,
                              from_effect_channel_pairs, from_generalized,
                              induced_povm)
from qmeasure.states import DensityOperator


def report(number, passed, detail):
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def lemma_corpus():
    """200 random (CPTP channel, effect) pairs per dim in {2,3,4,5}, including
    rank-deficient effects; shared by criteria 1 and 2."""
    stats = {"recon": 0.0, "tp": 0.0, "kernel": 0.0, "cross": 0.0, "pairs": 0}
    start = time.perf_counter()
    for d in (2, 3, 4, 5):
        for trial in range(200):
            rng = np.random.default_rng(1000 * d + trial)
            zero = int(rng.integers(0, d))
            f = harness.random_effect(d, rng, zero_eigenvalues=zero)
            e0 = harness.random_cptp(d, d, int(rng.integers(1, d + 1)), rng)
            root = matkit.psd_sqrt(matkit.eigh_desc(f.mat))
            b = KrausChannel.from_ops([k @ root for k in e0.kraus])
            rec = decompose(b, f)
            stats["recon"] = max(stats["recon"], rec.reconstruction_residual)
            stats["tp"] = max(stats["tp"], rec.completeness_residual)
            stats["kernel"] = max(stats["kernel"], rec.premise.kernel_residual)
            stats["cross"] = max(stats["cross"], rec.premise.cross_residual)
            stats["pairs"] += 1
    stats["seconds"] = time.perf_counter() - start
    return stats


def test_criterion_1_lemma_round_trip(lemma_corpus):
    ok = (lemma_corpus["pairs"] == 800
          and lemma_corpus["recon"] <= 1e-9
          and lemma_corpus["tp"] <= 1e-9
          and lemma_corpus["seconds"] <= 60.0)
    report(1, ok,
           f"{lemma_corpus['pairs']} pairs, reconstruction <= {lemma_corpus['recon']:.2e}, "
           f"adjoint(E)(I)=I residual <= {lemma_corpus['tp']:.2e}, "
           f"{lemma_corpus['seconds']:.1f}s")


def test_criterion_2_vanishing_terms(lemma_corpus):
    worst = max(lemma_corpus["kernel"], lemma_corpus["cross"])
    report(2, worst <= 1e-10,
           f"kernel-term <= {lemma_corpus['kernel']:.2e}, "
           f"cross-term <= {lemma_corpus['cross']:.2e}")


def test_criterion_3_trace_rule_pullback_duality():
    worst = 0.0
    for trial in range(500):
        rng = np.random.default_rng(20000 + trial)
        d = int(rng.integers(2, 5))
        ch = harness.random_cptp(d, d, int(rng.integers(1, d + 1)), rng)
        povm = harness.random_povm(d, int(rng.integers(2, 4)), rng)
        rho = harness.random_density(d, rng)
        pulled = pullback_povm(ch, povm)
        evolved = apply_map(ch, rho.mat)
        for eff, eff_pulled in zip(povm.effects, pulled.effects):
            gap = abs(np.trace(evolved @ eff.mat) - np.trace(rho.mat @ eff_pulled.mat))
            worst = max(worst, float(gap))
    report(3, worst <= 1e-10, f"500 triples, max |tr(E(rho)F) - tr(rho F')| = {worst:.2e}")


def test_criterion_4_sequential_fusion_identity():
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng(30000 + trial)
        d = int(rng.integers(2, 4))
        first = harness.random_instrument(d, int(rng.integers(2, 4)),
                                          int(rng.integers(1, 3)), rng)
        second = harness.random_instrument(d, int(rng.integers(2, 4)),
                                           int(rng.integers(1, 3)), rng)
        fused = fuse_sequential(first, second)
        rho = harness.random_density(d, rng)
        g_povm = induced_povm(second)
        fused_probs = {r.label: r.probability for r in apply_instrument(fused, rho)}
        for r1 in apply_instrument(first, rho):
            for label_g, eff_g in g_povm.outcomes:
                key = f"{r1.label}·{label_g}"
                if r1.state is None:
                    product = 0.0
                else:
                    product = r1.probability * float(
                        np.trace(r1.state.mat @ eff_g.mat).real)
                worst = max(worst, abs(fused_probs[key] - product))
    report(4, worst <= 1e-10, f"200 pairs, max |p_fused - p_two_step| = {worst:.2e}")


def test_criterion_5_no_signaling_and_nonlinear_witness():
    suite = run_nosignal_suite(trials=200, seed=42, dims=(2, 3))
    witness = find_nonlinearity_witness(nonlinear_square_map, max_pairs=50, seed=23)
    ok = suite.passed and suite.max_residual <= 1e-9 and witness is not None
    detail = (f"200 trials, max residual {suite.max_residual:.2e}; "
              f"nonlinear witness at pair {witness['pair_index'] if witness else 'none'}")
    report(5, ok, detail)


def test_criterion_6_generalized_equals_polar_split():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(40000 + trial)
        d = int(rng.integers(2, 5))
        ms = harness.random_cptp(d, d, int(rng.integers(2, 5)), rng).kraus
        direct = from_generalized(ms)
        pairs = []
        for m in ms:
            v, _ = matkit.polar_decompose(m)
            pairs.append((Effect(m.conj().T @ m),
                          KrausChannel.from_ops([v])))
        split = from_effect_channel_pairs(pairs)
        for _ in range(3):
            rho = harness.random_density(d, rng)
            for r1, r2 in zip(apply_instrument(direct, rho),
                              apply_instrument(split, rho)):
                worst = max(worst, abs(r1.probability - r2.probability))
                if r1.state is not None and r2.state is not None:
                    gap = float(np.max(np.abs(
                        r1.probability * r1.state.mat - r2.probability * r2.state.mat)))
                    worst = max(worst, gap)
    report(6, worst <= 1e-10, f"100 Kraus sets, max pointwise gap = {worst:.2e}")


def test_criterion_7_degeneracy_witness():
    inst = harness.atom_demo()
    excited = inst.channel("1")
    effect = induced_povm(inst).effect("1")
    rank = kraus_rank(excited)
    conditional = decompose(excited, effect).channel
    recon = reconstruction_residual(excited, effect, conditional)
    ok = rank == 2 and recon <= 1e-10
    report(7, ok, f"excited-outcome map has Kraus rank {rank} "
                  f"(not a single-operator update), reconstruction {recon:.2e}")


def test_criterion_8_correlated_environment_demo():
    rep = correlated_env_demo()
    first_ok = np.max(np.abs(rep.post_system_first - np.diag([0.0, 1.0]))) <= 1e-12
    second_ok = np.max(np.abs(rep.post_system_second - np.diag([1.0, 0.0]))) <= 1e-12
    ok = first_ok and second_ok and rep.initial_residual <= 1e-12
    report(8, ok, "identical I/2 marginals evolve to |1><1| and |0><0| "
                  f"(initial residual {rep.initial_residual:.2e})")


def test_criterion_9_cp_detection():
    choi = choi_from_map(transpose_superoperator(2))
    low = choi.min_eigenvalue()
    errored = False
    try:
        kraus_from_choi(choi)
    except NotCPError:
        errored = True
    ok = low <= -0.5 and errored
    report(9, ok, f"transpose Choi eigenvalue {low:.3f} <= -0.5, "
                  f"kraus_from_choi raised NotCPError: {errored}")
