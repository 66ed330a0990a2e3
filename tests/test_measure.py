import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import harness, matkit
from qmeasure.channels import KrausChannel, apply_map, identity_channel, unitary_channel
from qmeasure.matkit import DEFAULT_TOL
from qmeasure.measure import (Effect, Instrument, Povm, apply_instrument,
                              from_effect_channel_pairs, from_generalized,
                              fuse_sequential, induced_povm, luders_from_povm,
                              probabilities)
from qmeasure.states import DensityOperator

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def outer(v):
    return np.outer(v, np.asarray(v).conj())


def z_povm():
    return Povm.from_effects([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def x_povm():
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    return Povm.from_effects([outer(PLUS), outer(minus)], labels=["+", "-"])


def trine_povm():
    effects = []
    for k in range(3):
        theta = 2.0 * np.pi * k / 3.0
        ket = np.array([np.cos(theta / 2), np.sin(theta / 2)])
        effects.append(2.0 / 3.0 * outer(ket))
    return Povm.from_effects(effects)


def test_probabilities_plus_state():
    dist = dict(probabilities(DensityOperator(outer(PLUS)), z_povm()))
    assert abs(dist["0"] - 0.5) < 1e-12
    assert abs(dist["1"] - 0.5) < 1e-12


def test_probabilities_trivial_povm():
    rng = np.random.default_rng(1)
    rho = harness.random_density(3, rng)
    povm = Povm.from_effects([np.eye(3)])
    assert abs(dict(probabilities(rho, povm))["0"] - 1.0) < 1e-12


def test_probabilities_trine():
    # direct trace oracle: tr(I/2 * 2/3 P) = 1/3 for each trine element
    rho = DensityOperator(np.eye(2) / 2)
    for _, p in probabilities(rho, trine_povm()):
        assert abs(p - 1.0 / 3.0) < 1e-12


def test_effect_spectrum_checked():
    with pytest.raises(ValueError):
        Effect(np.diag([1.5, 0.0]))
    with pytest.raises(ValueError):
        Effect(np.diag([-0.2, 0.0]))
    with pytest.raises(ValueError, match=r"by 1\.900e-09 \(eps = 1\.000e-09\)"):
        Effect(np.diag([0.5, 1.0 + 1.9e-9]))


def test_a_write_to_the_input_after_construction_does_not_reach_the_value():
    a = np.diag([0.75, 0.25]).astype(complex)
    rho, f = DensityOperator(a), Effect(a)
    a[0, 0] = 7.0
    for value in (rho, f):
        assert value.mat[0, 0] == 0.75 and not value.mat.flags.writeable


def test_povm_completeness_checked():
    with pytest.raises(ValueError, match="completeness residual"):
        Povm.from_effects([0.9 * np.diag([1.0, 0.0]), 0.9 * np.diag([0.0, 1.0])])


def test_labels_are_unique_after_conversion_to_strings():
    half = Effect(np.eye(2) / 2)
    with pytest.raises(ValueError, match="labels must be unique"):
        Povm(((1, half), ("1", half)))
    ch = KrausChannel.from_ops([np.eye(2) / np.sqrt(2)])
    with pytest.raises(ValueError, match="labels must be unique"):
        Instrument(((1, ch), ("1", ch)))


@pytest.mark.parametrize("labels", [["a", "b"], ["a", "b", "c", "d"]])
def test_povm_from_effects_needs_one_label_per_effect(labels):
    effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))]
    with pytest.raises(ValueError, match=f"^{len(labels)} labels for 3 effects$"):
        Povm.from_effects(effects, labels=labels)


@pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
def test_from_generalized_needs_one_label_per_operator(labels):
    with pytest.raises(ValueError, match=f"^{len(labels)} labels for 2 measurement operators$"):
        from_generalized([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=labels)


@pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
def test_from_effect_channel_pairs_needs_one_label_per_pair(labels):
    pairs = [(eff, identity_channel(2)) for eff in z_povm().effects]
    with pytest.raises(ValueError, match=rf"^{len(labels)} labels for 2 \(effect, channel\) pairs$"):
        from_effect_channel_pairs(pairs, labels=labels)


def test_instrument_builds_its_induced_povm_once():
    inst = harness.random_instrument(3, 3, 2, np.random.default_rng(8))
    povm = induced_povm(inst)
    assert povm is induced_povm(inst) and povm.labels == inst.labels
    for (_, ch), eff in zip(inst.outcomes, povm.effects):
        np.testing.assert_allclose(eff.mat, ch.completeness(), rtol=0, atol=1e-15)


def test_incomplete_instrument_names_the_total():
    ch = KrausChannel.from_ops([np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match="instrument total trace: .*completeness residual"):
        Instrument((("0", ch),))


def test_induced_povm_of_luders_round_trips():
    povm = trine_povm()
    back = induced_povm(luders_from_povm(povm))
    for eff_in, eff_out in zip(povm.effects, back.effects):
        np.testing.assert_allclose(eff_out.mat, eff_in.mat, atol=1e-10)


def test_induced_povm_of_generalized():
    rng = np.random.default_rng(3)
    ch = harness.random_cptp(2, 2, 3, rng)
    inst = from_generalized(ch.kraus)
    povm = induced_povm(inst)
    for m, eff in zip(ch.kraus, povm.effects):
        np.testing.assert_allclose(eff.mat, m.conj().T @ m, atol=1e-12)


def test_induced_povm_matches_branch_traces():
    rng = np.random.default_rng(5)
    inst = harness.random_instrument(3, 3, 2, rng)
    povm = induced_povm(inst)
    for _ in range(20):
        rho = harness.random_density(3, rng)
        branch = {r.label: r.probability for r in apply_instrument(inst, rho)}
        trace_rule = dict(probabilities(rho, povm))
        for label in branch:
            assert abs(branch[label] - trace_rule[label]) <= 1e-10


def test_luders_collapses_to_basis():
    inst = luders_from_povm(z_povm())
    results = apply_instrument(inst, DensityOperator(outer(PLUS)))
    assert [r.label for r in results] == ["0", "1"]
    for r, expected in zip(results, (outer(KET0), outer(KET1))):
        assert abs(r.probability - 0.5) < 1e-12
        np.testing.assert_allclose(r.state.mat, expected, atol=1e-12)


def test_luders_trivial_povm_is_identity_channel():
    inst = luders_from_povm(Povm.from_effects([np.eye(2)]))
    rng = np.random.default_rng(7)
    rho = harness.random_density(2, rng)
    (result,) = apply_instrument(inst, rho)
    assert abs(result.probability - 1.0) < 1e-12
    np.testing.assert_allclose(result.state.mat, rho.mat, atol=1e-12)


def test_luders_uniform_coin():
    # sqrt(I/2) = I/sqrt(2), so both outcomes leave the state untouched
    inst = luders_from_povm(Povm.from_effects([np.eye(2) / 2, np.eye(2) / 2]))
    rng = np.random.default_rng(9)
    rho = harness.random_density(2, rng)
    for result in apply_instrument(inst, rho):
        assert abs(result.probability - 0.5) < 1e-12
        np.testing.assert_allclose(result.state.mat, rho.mat, atol=1e-12)


def test_from_generalized_projective():
    inst = from_generalized([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    results = apply_instrument(inst, DensityOperator(outer(PLUS)))
    np.testing.assert_allclose(results[0].state.mat, outer(KET0), atol=1e-12)


def test_from_generalized_identity_or_flip():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = from_generalized([np.eye(2) / np.sqrt(2), x / np.sqrt(2)])
    rng = np.random.default_rng(11)
    rho = harness.random_density(2, rng)
    results = apply_instrument(inst, rho)
    assert abs(results[0].probability - 0.5) < 1e-12
    np.testing.assert_allclose(results[0].state.mat, rho.mat, atol=1e-12)
    np.testing.assert_allclose(results[1].state.mat, x @ rho.mat @ x, atol=1e-12)


def test_from_generalized_completeness_checked():
    with pytest.raises(ValueError, match="incomplete"):
        from_generalized([np.eye(2) / 2])


def test_from_generalized_equals_polar_split():
    rng = np.random.default_rng(13)
    for _ in range(10):
        ms = harness.random_cptp(3, 3, 3, rng).kraus
        direct = from_generalized(ms)
        pairs = []
        for m in ms:
            v, _ = matkit.polar_decompose(m)
            pairs.append((Effect(m.conj().T @ m), unitary_channel(v)))
        split = from_effect_channel_pairs(pairs)
        for rho in (harness.random_density(3, rng) for _ in range(5)):
            for r1, r2 in zip(apply_instrument(direct, rho), apply_instrument(split, rho)):
                assert abs(r1.probability - r2.probability) <= 1e-10
                if r1.state is not None and r2.state is not None:
                    assert np.max(np.abs(r1.state.mat - r2.state.mat)) <= 1e-8


def test_from_effect_channel_pairs_identity_channels_match_luders():
    povm = trine_povm()
    pairs = [(eff, identity_channel(2)) for eff in povm.effects]
    built = from_effect_channel_pairs(pairs)
    ideal = luders_from_povm(povm)
    rng = np.random.default_rng(15)
    rho = harness.random_density(2, rng)
    for r1, r2 in zip(apply_instrument(built, rho), apply_instrument(ideal, rho)):
        assert abs(r1.probability - r2.probability) <= 1e-12
        np.testing.assert_allclose(r1.state.mat, r2.state.mat, atol=1e-12)


def test_luders_and_effect_channel_pairs_read_the_cached_root_of_each_effect(monkeypatch):
    povm = trine_povm()
    roots = [eff.root for eff in povm.effects]
    taken = []
    psd_sqrt = matkit.psd_sqrt
    monkeypatch.setattr(matkit, "psd_sqrt",
                        lambda *args, **kw: taken.append(args) or psd_sqrt(*args, **kw))
    ideal = luders_from_povm(povm)
    built = from_effect_channel_pairs([(eff, identity_channel(2)) for eff in povm.effects])
    assert taken == []
    for (_, luders), (_, paired), root in zip(ideal.outcomes, built.outcomes, roots):
        np.testing.assert_array_equal(luders.kraus[0], root)
        np.testing.assert_array_equal(paired.kraus[0], root)


def test_from_effect_channel_pairs_requires_tp_channels():
    povm = z_povm()
    lossy = KrausChannel.from_ops([np.eye(2) / np.sqrt(2)])
    with pytest.raises(ValueError, match="trace preserving"):
        from_effect_channel_pairs([(povm.effects[0], lossy),
                                   (povm.effects[1], identity_channel(2))])


def test_atom_style_reset_outcome():
    inst = harness.atom_demo()
    e1 = np.zeros(3)
    e1[1] = 1.0
    g = np.zeros(3)
    g[0] = 1.0
    rho = DensityOperator(0.5 * outer(e1) + 0.5 * outer(g))
    results = {r.label: r for r in apply_instrument(inst, rho)}
    assert abs(results["1"].probability - 0.5) < 1e-12
    np.testing.assert_allclose(results["1"].state.mat, outer(g), atol=1e-12)
    # reset-to-ground for every excited input
    e2 = np.zeros(3)
    e2[2] = 1.0
    for ket in (e1, e2, (e1 + e2) / np.sqrt(2)):
        res = {r.label: r for r in apply_instrument(inst, DensityOperator(outer(ket)))}
        np.testing.assert_allclose(res["1"].state.mat, outer(g), atol=1e-12)


def test_apply_instrument_eigen_input():
    inst = luders_from_povm(z_povm())
    results = apply_instrument(inst, DensityOperator(outer(KET0)))
    assert abs(results[0].probability - 1.0) < 1e-12
    np.testing.assert_allclose(results[0].state.mat, outer(KET0), atol=1e-12)
    assert results[1].probability <= 1e-12
    assert results[1].state is None  # zero-probability branch carries no state


def test_apply_instrument_probabilities_sum_to_one():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        inst = harness.random_instrument(d, int(rng.integers(2, 4)), 2, rng)
        rho = harness.random_density(d, rng)
        results = apply_instrument(inst, rho)
        assert abs(sum(r.probability for r in results) - 1.0) <= 1e-9
        for r in results:
            if r.state is not None:
                assert abs(np.trace(r.state.mat).real - 1.0) <= 1e-9
                assert np.linalg.eigvalsh(r.state.mat).min() >= -1e-9


def test_tiny_probability_branch_still_yields_valid_state():
    # cancellation leaves ~1e-16 absolute noise in the branch output, which the
    # 1e-10 normalization would amplify past the eigenvalue tolerance
    from qmeasure.measure import Instrument, branch_state
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = Instrument((("s", KrausChannel.from_ops([(np.eye(2) + x) / 2])),
                       ("a", KrausChannel.from_ops([(np.eye(2) - x) / 2]))))
    psi = np.array([1.0, -1.0 + 2e-5])
    rho = DensityOperator.from_vector(psi)
    results = apply_instrument(inst, rho)
    assert 1e-12 < results[0].probability < 1e-9
    assert results[0].state is not None
    assert np.linalg.eigvalsh(results[0].state.mat).min() >= -1e-9
    # genuine negativity is not masked
    with pytest.raises(ValueError, match="negative eigenvalue"):
        branch_state(np.diag([1.0, -0.2]), 0.8)


def test_outcome_maps_are_linear():
    rng = np.random.default_rng(19)
    inst = harness.random_instrument(3, 2, 2, rng)
    r1 = harness.random_density(3, rng).mat
    r2 = harness.random_density(3, rng).mat
    for _, ch in inst.outcomes:
        lhs = apply_map(ch, 0.4 * r1 + 0.6 * r2)
        rhs = 0.4 * apply_map(ch, r1) + 0.6 * apply_map(ch, r2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_mixture_convexity_of_branches():
    rng = np.random.default_rng(21)
    inst = harness.random_instrument(2, 2, 1, rng)
    rho1 = harness.random_density(2, rng)
    rho2 = harness.random_density(2, rng)
    mixture = DensityOperator(0.3 * rho1.mat + 0.7 * rho2.mat)
    for r, r1, r2 in zip(apply_instrument(inst, mixture),
                         apply_instrument(inst, rho1),
                         apply_instrument(inst, rho2)):
        p = 0.3 * r1.probability + 0.7 * r2.probability
        assert abs(r.probability - p) <= 1e-12
        blended = (0.3 * r1.probability * r1.state.mat
                   + 0.7 * r2.probability * r2.state.mat) / p
        assert np.max(np.abs(r.state.mat - blended)) <= 1e-10


def test_fuse_with_trivial_second_stage():
    first = luders_from_povm(z_povm())
    second = luders_from_povm(Povm.from_effects([np.eye(2)], labels=["t"]))
    fused = fuse_sequential(first, second)
    assert fused.labels == ("0·t", "1·t")
    rng = np.random.default_rng(23)
    rho = harness.random_density(2, rng)
    for r_fused, r_first in zip(apply_instrument(fused, rho),
                                apply_instrument(first, rho)):
        assert abs(r_fused.probability - r_first.probability) <= 1e-12


def test_fuse_z_then_x_on_ket0():
    # two-step simulation oracle: p(0)=1, then X gives 1/2 each
    fused = fuse_sequential(luders_from_povm(z_povm()), luders_from_povm(x_povm()))
    results = {r.label: r.probability for r in
               apply_instrument(fused, DensityOperator(outer(KET0)))}
    assert abs(results["0·+"] - 0.5) < 1e-12
    assert abs(results["0·-"] - 0.5) < 1e-12
    assert results["1·+"] < 1e-12
    assert results["1·-"] < 1e-12


def test_fuse_joint_statistics_match_two_step_product():
    rng = np.random.default_rng(25)
    for _ in range(10):
        first = harness.random_instrument(2, 2, 2, rng)
        second = harness.random_instrument(2, 2, 1, rng)
        fused = fuse_sequential(first, second)
        rho = harness.random_density(2, rng)
        g_povm = induced_povm(second)
        fused_probs = {r.label: r.probability for r in apply_instrument(fused, rho)}
        for r1 in apply_instrument(first, rho):
            for label_g, eff_g in g_povm.outcomes:
                key = f"{r1.label}·{label_g}"
                if r1.state is None:
                    assert fused_probs[key] <= 1e-12
                    continue
                two_step = r1.probability * np.trace(r1.state.mat @ eff_g.mat).real
                assert abs(fused_probs[key] - two_step) <= 1e-10


def test_fused_effects_are_pulled_back_second_stage_effects():
    rng = np.random.default_rng(27)
    first = harness.random_instrument(2, 2, 1, rng)
    second = harness.random_instrument(2, 2, 2, rng)
    fused = fuse_sequential(first, second)
    omega = induced_povm(fused)
    g_povm = induced_povm(second)
    from qmeasure.channels import adjoint
    for mu, b_mu in first.outcomes:
        dual = adjoint(b_mu)
        for nu, eff_g in g_povm.outcomes:
            expected = apply_map(dual, eff_g.mat)
            got = omega.effect(f"{mu}·{nu}").mat
            assert np.max(np.abs(got - expected)) <= 1e-10


def test_fuse_single_outcome_channel_matches_pullback():
    from qmeasure.channels import pullback_povm
    rng = np.random.default_rng(29)
    ch = harness.random_cptp(2, 2, 2, rng)
    evolution = Instrument((("e", ch),))
    second = harness.random_instrument(2, 2, 1, rng)
    fused = fuse_sequential(evolution, second)
    omega = induced_povm(fused)
    pulled = pullback_povm(ch, induced_povm(second))
    for (label, eff_omega), (_, eff_pulled) in zip(omega.outcomes, pulled.outcomes):
        assert np.max(np.abs(eff_omega.mat - eff_pulled.mat)) <= 1e-10


def test_fuse_associative():
    rng = np.random.default_rng(31)
    a = harness.random_instrument(2, 2, 1, rng)
    b = harness.random_instrument(2, 2, 2, rng)
    c = harness.random_instrument(2, 2, 1, rng)
    left = fuse_sequential(fuse_sequential(a, b), c)
    right = fuse_sequential(a, fuse_sequential(b, c))
    assert left.labels == right.labels
    rho = harness.random_density(2, rng)
    for r1, r2 in zip(apply_instrument(left, rho), apply_instrument(right, rho)):
        assert abs(r1.probability - r2.probability) <= 1e-9
        if r1.state is not None and r2.state is not None:
            assert np.max(np.abs(r1.state.mat - r2.state.mat)) <= 1e-9


def test_ensemble_independence_of_branch_maps():
    # same average state => same unnormalized branch outputs
    from qmeasure.states import purify
    rng = np.random.default_rng(33)
    inst = harness.random_instrument(2, 2, 2, rng)
    rho = harness.random_density(2, rng)
    psi = purify(rho)
    e1 = harness.steered_ensemble(psi, harness.random_povm(2, 2, rng))
    e2 = harness.steered_ensemble(psi, harness.random_povm(2, 3, rng))
    for _, ch in inst.outcomes:
        out1 = sum(w * apply_map(ch, s.mat) for w, s in e1.members)
        out2 = sum(w * apply_map(ch, s.mat) for w, s in e2.members)
        assert np.max(np.abs(out1 - out2)) <= 1e-10


# --- completeness at the tolerance edge ------------------------------------

EDGE = settings(deadline=None, max_examples=40)
EDGE_DIMS = st.sampled_from([2, 3, 4])
SEEDS = st.integers(0, 2 ** 32 - 1)
SCALES = st.floats(0.5, 1.5)  # c in units of eps * d / ||H||_2
RANKS = st.integers(0, 3)  # 0: base I/2; r > 0: a rank-r projector (at most d - 1)


def unit_hermitian(d, seed):
    """Random Hermitian H with ||H||_2 = 1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def edge_pair(d, seed, scale, rank):
    """(B + c H, I - B) with c = scale * eps * d, so the pair misses completeness by
    exactly c in spectral norm.  B = I/2 keeps both spectra inside [0, 1]; a
    projector B puts eigenvalues within c of 0 and of 1, where the effect check
    itself can reject."""
    r = min(rank, d - 1)
    base = np.eye(d) / 2 if rank == 0 else np.diag([1.0] * r + [0.0] * (d - r))
    return base + scale * DEFAULT_TOL.eps * d * unit_hermitian(d, seed), np.eye(d) - base


def assert_decision_follows_the_spectral_rule(accepted, scale, rank):
    if abs(scale - 1.0) <= 1e-6:  # the knife edge, where rounding decides
        return
    if accepted:
        assert scale < 1.0
    else:  # a projector base may also fail the effect check, below the bound
        assert scale > 1.0 or rank > 0


def kraus_root(f):
    """A square root of f with its (tiny) negative eigenvalues clipped to zero."""
    w, v = np.linalg.eigh(f)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


@EDGE
@given(d=EDGE_DIMS, seed=SEEDS, scale=SCALES, rank=RANKS,
       trace_slack=st.floats(-0.99, 0.99))
def test_povm_at_the_completeness_edge_gives_normalised_probabilities(d, seed, scale, rank,
                                                                        trace_slack):
    try:
        povm = Povm.from_effects(edge_pair(d, seed, scale, rank))
    except ValueError:
        assert_decision_follows_the_spectral_rule(False, scale, rank)
        return
    assert_decision_follows_the_spectral_rule(True, scale, rank)
    _, v = np.linalg.eigh(unit_hermitian(d, seed))
    states = [DensityOperator((1.0 + trace_slack * DEFAULT_TOL.eps) * outer(v[:, k]))
              for k in (0, d - 1)]
    states.append(harness.random_density(d, np.random.default_rng(seed + 1)))
    for rho in states:
        probabilities(rho, povm)


@EDGE
@given(d=EDGE_DIMS, seed=SEEDS, scale=SCALES, rank=RANKS, kraus_count=st.integers(1, 3))
def test_instrument_at_the_completeness_edge_induces_a_povm(d, seed, scale, rank,
                                                            kraus_count):
    f_a, f_b = edge_pair(d, seed, scale, rank)
    spread = harness.random_cptp(d, d, kraus_count, np.random.default_rng(seed + 1))
    outcomes = (("a", KrausChannel.from_ops([k @ kraus_root(f_a) for k in spread.kraus])),
                ("b", KrausChannel.from_ops([kraus_root(f_b)])))
    try:
        inst = Instrument(outcomes)
    except ValueError:
        if rank == 0:  # clipping leaves an I/2 base untouched
            assert_decision_follows_the_spectral_rule(False, scale, rank)
        return
    if rank == 0:
        assert_decision_follows_the_spectral_rule(True, scale, rank)
    induced_povm(inst)



def test_each_branch_takes_one_spectrum_on_the_common_path(monkeypatch):
    rng = np.random.default_rng(41)
    inst = harness.random_instrument(3, 3, 2, rng)
    rho = harness.random_density(3, rng)
    calls = []
    inner = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or inner(m))
    results = apply_instrument(inst, rho)
    assert all(r.state is not None for r in results)
    assert len(calls) == len(results) == 3


def test_branch_state_leaves_eigenvalues_the_state_accepts():
    from qmeasure.measure import branch_state
    low = -0.5 * DEFAULT_TOL.eps
    state = branch_state(np.diag([0.5 - 0.5 * low, 0.5 * low]), 0.5)
    np.testing.assert_array_equal(state.mat, np.diag([1.0 - low, low]))



def test_branch_state_clips_roundoff_that_a_small_probability_amplifies():
    """At p = 1e-11 an output eigenvalue of -2e-20 becomes -2e-9 after the
    division: past eps, but within the amplified roundoff 100 ulp / p, so it is
    clipped to zero and the state renormalized.  The same -2e-9 at p = 0.5 is
    genuine and still raises."""
    from qmeasure.measure import branch_state
    state = branch_state(np.diag([1e-11, -2e-20]), 1e-11)
    np.testing.assert_array_equal(state.mat, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="density operator has negative eigenvalue -2.000e-09"):
        branch_state(np.diag([0.5, -1e-9]), 0.5)


def test_from_effect_channel_pairs_rejects_effects_that_miss_the_identity():
    pairs = [(np.diag([0.6, 0.55]), identity_channel(2)),
             (np.diag([0.5, 0.5]), identity_channel(2))]
    with pytest.raises(ValueError, match="completeness residual"):
        from_effect_channel_pairs(pairs)


def test_branch_cuts_at_the_probability_floor():
    from qmeasure.measure import P_FLOOR, branch
    assert branch(np.diag([P_FLOOR, 0.0])) == (P_FLOOR, None)
    prob, state = branch(np.diag([2 * P_FLOOR, 0.0]))
    assert prob == 2 * P_FLOOR
    np.testing.assert_array_equal(state.mat, np.diag([1.0, 0.0]))


def test_branch_clamps_its_probability_into_the_unit_interval():
    from qmeasure.measure import branch
    out = np.diag([0.5 + 1e-15, 0.5])
    assert float(np.trace(out).real) > 1.0
    prob, state = branch(out)
    assert prob == 1.0
    np.testing.assert_array_equal(state.mat, out)
    assert branch(np.diag([-1e-3, 0.0])) == (0.0, None)


def test_branch_state_takes_the_hermitian_part_before_dividing():
    """At p = 1e-8, anti-Hermitian rounding of 2e-17 in the branch output
    becomes 2e-9 after the division, past eps."""
    from qmeasure.measure import branch_state
    p = 1e-8
    skew = np.array([[0.0, 2e-17], [-2e-17, 0.0]])
    out = p * outer(PLUS) + skew
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityOperator(out / p)
    np.testing.assert_allclose(branch_state(out, p).mat, outer(PLUS), atol=1e-15)
