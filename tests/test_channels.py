import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeasure import channels, harness, matkit
from qmeasure.channels import (ChoiMatrix, KrausChannel, Superoperator, adjoint,
                               apply_map, choi_from_map, completely_depolarizing,
                               compose, identity_channel, kraus_from_choi,
                               pullback_povm, superop_from_map,
                               transpose_superoperator, unitary_channel, vec)
from qmeasure.decomposition import decompose, kraus_rank
from qmeasure.errors import NonPositiveEffectError, NotCPError
from qmeasure.matkit import DEFAULT_TOL, Tolerances
from qmeasure.measure import Povm
from qmeasure.states import BipartiteState, DensityOperator


def choi_oracle(m, d_in, d_out):
    """Literal Choi assembly: sum_ij |i><j| (x) E(|i><j|), E applied directly."""
    c = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[i, j] = 1.0
            basis = np.zeros((d_in, d_in), dtype=complex)
            basis[i, j] = 1.0
            c += np.kron(basis, apply_map(m, unit))
    return c


def amplitude_damping(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel.from_ops([k0, k1])


def test_choi_of_identity():
    c = choi_from_map(identity_channel(2))
    bell = np.array([1, 0, 0, 1], dtype=complex)
    np.testing.assert_allclose(c.mat, np.outer(bell, bell), atol=1e-12)
    np.testing.assert_allclose(c.mat, choi_oracle(identity_channel(2), 2, 2), atol=1e-12)


def test_choi_of_transpose_is_swap():
    c = choi_from_map(transpose_superoperator(2))
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    np.testing.assert_allclose(c.mat, swap, atol=1e-12)
    assert c.min_eigenvalue() <= -0.5
    assert not c.is_cp()


def test_choi_of_depolarizing():
    d = 3
    c = choi_from_map(completely_depolarizing(d))
    np.testing.assert_allclose(c.mat, np.kron(np.eye(d), np.eye(d) / d), atol=1e-12)
    assert c.is_cp()


def test_kraus_from_choi_of_identity():
    k = kraus_from_choi(choi_from_map(identity_channel(2)))
    assert len(k.kraus) == 1
    # unique up to global phase; the phase convention fixes it to +I
    np.testing.assert_allclose(k.kraus[0], np.eye(2), atol=1e-10)


# --- the stacked Kraus array ----------------------------------------------

def test_kraus_constructor_rejects_malformed_stacks():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        KrausChannel(())
    with pytest.raises(ValueError):
        KrausChannel(np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        KrausChannel((eye, np.eye(3)))
    with pytest.raises(ValueError):
        KrausChannel(eye)
    bad = eye.copy()
    bad[0, 1] = np.nan
    with pytest.raises(ValueError):
        KrausChannel((eye, bad))


def test_kraus_and_superoperator_dimensions_are_read_from_their_arrays():
    ch = KrausChannel(np.ones((2, 3, 5)))
    assert (ch.d_out, ch.d_in) == (3, 5) and (type(ch.d_out), type(ch.d_in)) == (int, int)
    s = Superoperator(np.ones((9, 25)))
    assert (s.d_out, s.d_in) == (3, 5) and (type(s.d_out), type(s.d_in)) == (int, int)
    for mat in (np.eye(3), np.ones((4, 3)), np.ones((5, 4))):
        with pytest.raises(ValueError, match="is not \\(d_out\\*\\*2, d_in\\*\\*2\\)"):
            Superoperator(mat)



@pytest.mark.parametrize("cast", [np.int64, float], ids=["int64", "float"])
def test_map_forms_store_their_dimensions_as_ints(cast):
    rng = np.random.default_rng(31)
    ch = harness.random_cptp(2, 3, 2, rng)
    d_in, d_out = cast(2), cast(3)
    forms = [KrausChannel(ch.kraus),
             Superoperator(superop_from_map(ch).mat),
             ChoiMatrix(choi_from_map(ch).mat, d_in=d_in, d_out=d_out)]
    rho = harness.random_density(2, rng).mat
    povm = harness.random_povm(3, 3, rng)
    for m in forms:
        assert (type(m.d_in), type(m.d_out)) == (int, int) and (m.d_in, m.d_out) == (2, 3)
        np.testing.assert_allclose(apply_map(m, rho), apply_map(ch, rho), rtol=0, atol=1e-12)
        np.testing.assert_allclose(superop_from_map(m).mat, superop_from_map(ch).mat,
                                   rtol=0, atol=1e-12)
        for (_, pulled), (_, ref) in zip(pullback_povm(m, povm).outcomes,
                                         pullback_povm(ch, povm).outcomes):
            np.testing.assert_allclose(pulled.mat, ref.mat, rtol=0, atol=1e-12)


def test_map_forms_reject_dimensions_that_are_not_positive_integers():
    """A Choi matrix of size 6 once passed as d_in = 1.5, d_out = 4, or as
    d_in = -2, d_out = -3, since only the product was checked.  A bool, which
    int() reads as 0 or 1, is no dimension, as in the file format."""
    for build in (lambda: ChoiMatrix(np.eye(6), d_in=1.5, d_out=4),
                  lambda: ChoiMatrix(np.eye(6), d_in=-2, d_out=-3),
                  lambda: ChoiMatrix(np.eye(2), d_in=2, d_out=np.True_)):
        with pytest.raises(ValueError, match="map dimensions must be positive integers"):
            build()


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
def test_constructors_reject_a_non_finite_dimension_with_their_own_error(bad):
    """An infinite dimension once ended in Python's OverflowError and a NaN one
    in its "cannot convert float NaN to integer"."""
    mixed = DensityOperator(np.eye(4) / 4)
    for build, what in (
            (lambda: ChoiMatrix(np.eye(4), d_in=bad, d_out=bad), "map"),
            (lambda: BipartiteState((bad, 2), mixed), "factor")):
        with pytest.raises(ValueError, match=f"^{what} dimensions must be positive integers"):
            build()


def test_kraus_array_is_a_read_only_copy():
    ops = np.stack([np.eye(2), np.diag([1.0, 0.0])]).astype(complex)
    ch = KrausChannel(ops)
    assert isinstance(ch.kraus, np.ndarray) and ch.kraus.shape == (2, 2, 2)
    assert not ch.kraus.flags.writeable
    with pytest.raises(ValueError):
        ch.kraus[0, 0, 0] = 5.0
    ops[0, 0, 0] = 5.0
    assert ch.kraus[0, 0, 0] == 1.0
    assert len(ch.kraus) == 2 and [k.shape for k in ch.kraus] == [(2, 2), (2, 2)]


def test_choi_matrix_copies_the_callers_array_even_a_read_only_one():
    a = np.eye(4, dtype=complex)
    view = a[:]  # a writeable view taken before the owner is marked read-only
    a.setflags(write=False)
    choi = ChoiMatrix(a, d_in=2, d_out=2)
    view[0, 0] = 7.0
    b = np.eye(4, dtype=complex)
    other = ChoiMatrix(b, d_in=2, d_out=2)
    b[0, 0] = 7.0
    for c in (choi, other):
        assert c.mat[0, 0] == 1.0 and not c.mat.flags.writeable


def test_choi_of_a_kraus_channel_holds_one_dense_choi_matrix():
    ch = harness.random_cptp(16, 16, 4, np.random.default_rng(2))
    dense = 16 * 16 * 16 * 16 * np.dtype(complex).itemsize  # 1 MiB
    tracemalloc.start()
    try:
        choi = choi_from_map(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert choi.mat.nbytes == dense and not choi.mat.flags.writeable
    assert peak < 1.5 * dense


def traced_peak(build):
    """The result of `build()` and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_superoperator_and_choi_conversions_hold_one_dense_result():
    ch = harness.random_cptp(16, 16, 4, np.random.default_rng(2))
    dense = 16 * 16 * 16 * 16 * np.dtype(complex).itemsize  # 1 MiB
    superop, peak = traced_peak(lambda: superop_from_map(ch))
    assert superop.mat.nbytes == dense and not superop.mat.flags.writeable
    assert peak < 1.5 * dense
    choi, peak = traced_peak(lambda: choi_from_map(superop))
    assert not choi.mat.flags.writeable and peak < 1.5 * dense
    np.testing.assert_allclose(choi.mat, choi_from_map(ch).mat, rtol=0, atol=1e-15)
    back, peak = traced_peak(lambda: superop_from_map(choi))
    assert not back.mat.flags.writeable and peak < 1.5 * dense
    np.testing.assert_array_equal(back.mat, superop.mat)


def loop_completeness(ch):
    return sum(k.conj().T @ k for k in ch.kraus)


def loop_choi(ch):
    vecs = [k.T.reshape(-1) for k in ch.kraus]  # column-stacked vec(K)
    return sum(np.outer(w, w.conj()) for w in vecs)


def loop_superop(ch):
    return sum(np.kron(k.conj(), k) for k in ch.kraus)


def loop_kraus_from_choi(c):
    w, v = matkit.eigh_desc(c.mat)
    cutoff = matkit.DEFAULT_TOL.rank_cutoff(float(w.max()))
    return [np.sqrt(w[k]) * v[:, k].reshape(c.d_in, c.d_out).T
            for k in range(w.size) if w[k] > cutoff]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4)])
def test_stacked_kraus_forms_match_per_operator_loops(dims, n):
    d_in, d_out = dims
    rng = np.random.default_rng(100 * d_in + 10 * d_out + n)

    # Plain CP maps: with n = 1 and d_out < d_in none is trace preserving.
    def random_cp(d_in, d_out):
        g = rng.standard_normal((n, d_out, d_in)) + 1j * rng.standard_normal((n, d_out, d_in))
        return KrausChannel(g / 2)

    ch = random_cp(d_in, d_out)
    tol = 1e-12
    np.testing.assert_allclose(ch.completeness(), loop_completeness(ch), rtol=0, atol=tol)
    np.testing.assert_allclose(choi_from_map(ch).mat, loop_choi(ch), rtol=0, atol=tol)
    np.testing.assert_allclose(superop_from_map(ch).mat, loop_superop(ch), rtol=0, atol=tol)
    dual = adjoint(ch)
    assert (dual.d_in, dual.d_out) == (d_out, d_in)
    np.testing.assert_allclose(dual.kraus, [k.conj().T for k in ch.kraus], rtol=0, atol=tol)
    outer = random_cp(d_out, d_in)
    both = compose(outer, ch)
    assert (both.d_in, both.d_out) == (d_in, d_in)
    np.testing.assert_allclose(both.kraus, [f @ g for f in outer.kraus for g in ch.kraus],
                               rtol=0, atol=tol)
    c = choi_from_map(ch)
    np.testing.assert_allclose(kraus_from_choi(c).kraus, loop_kraus_from_choi(c),
                               rtol=0, atol=tol)


def channel_with_dead_rows(rows, d_in, d_out, rng) -> KrausChannel:
    """A random channel whose operators have zero rows in the way `rows` names;
    "decomposed" is E of decompose(b, f) for an effect f with a one-dimensional
    kernel, whose kernel block is d_out operators with one nonzero row each."""
    ch = harness.random_cptp(d_in, d_out, max(2, -(-d_in // d_out)), rng)
    if rows == "decomposed":
        f = harness.random_effect(d_in, rng, zero_eigenvalues=1)
        return decompose(KrausChannel.from_ops(ch.kraus @ f.root), f).channel
    ops = ch.kraus.copy()
    if rows == "one dead row":
        ops[0, rng.integers(d_out)] = 0
    elif rows == "one live row per operator":
        for k in ops:
            k[np.arange(d_out) != rng.integers(d_out)] = 0
    elif rows == "zero operator":
        ops[1] = 0
    elif rows == "mixed":
        # Two dense operators, then one with live rows 0 and d_out - 1 (dense
        # unless d_out > 2), the one-row operators |0><v|, |last><v|, |0><v| (a
        # repeated row and a repeated operator) and |0><w| (output row 0 again),
        # and a zero operator.
        g = rng.standard_normal((4, d_in)) + 1j * rng.standard_normal((4, d_in))
        extra = np.zeros((6, d_out, d_in), dtype=complex)
        extra[0, [0, -1]] = g[:2]
        extra[1, 0] = extra[2, -1] = extra[3, 0] = g[2]
        extra[4, 0] = g[3]
        ops = np.concatenate([ops, extra / 2])
    return KrausChannel.from_ops(ops)


def loop_apply(ch, r):
    """Sum of K r K† over the operators, in their order, each on all of its rows."""
    out = np.zeros(r.shape[:-2] + (ch.d_out, ch.d_out), dtype=complex)
    for k in ch.kraus:
        out += k @ r @ matkit.dagger(k)
    return out


@pytest.mark.parametrize("stack", [1, 3, 7])
@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4), (3, 1)])
def test_apply_map_on_a_stack_matches_per_matrix_calls(dims, stack):
    d_in, d_out = dims
    for rows in ("dense", "one dead row", "one live row per operator", "zero operator",
                 "mixed", "decomposed"):
        rng = np.random.default_rng(100 * d_in + 10 * d_out + stack)
        ch = channel_with_dead_rows(rows, d_in, d_out, rng)
        # General (non-Hermitian) operands, so no symmetry hides an index mix-up.
        shape = (stack, d_in, d_in)
        rhos = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        loop = [sum(k @ r @ k.conj().T for k in ch.kraus) for r in rhos]
        for form in (ch, superop_from_map(ch), choi_from_map(ch)):
            out = apply_map(form, rhos)
            assert out.shape == (stack, d_out, d_out)
            singles = [apply_map(form, r) for r in rhos]
            np.testing.assert_allclose(out, singles, rtol=0, atol=1e-12, err_msg=rows)
            np.testing.assert_allclose(out, loop, rtol=0, atol=1e-12, err_msg=rows)
            nested = apply_map(form, rhos.reshape(1, *shape))
            np.testing.assert_allclose(nested[0], out, rtol=0, atol=1e-12, err_msg=rows)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4), (3, 1), (3, 3), (3, 5), (5, 4)])
def test_a_channel_without_dead_rows_keeps_the_per_operator_sums_bit_for_bit(dims):
    """`decompose` reads F's kernel basis off a product-by-product sum of K†K, whose
    last bit can rotate that basis.  A channel with no one-row operator, dead rows
    or not, gets the plain loop's bits; one with one-row operators is summed otherwise."""
    d_in, d_out = dims

    def product_sum(ch):
        return (ch.kraus.conj().transpose(0, 2, 1) @ ch.kraus).sum(axis=0)

    rng = np.random.default_rng(7 * d_in + d_out)
    dense = channel_with_dead_rows("dense", d_in, d_out, rng)
    np.testing.assert_array_equal(dense.completeness(), product_sum(dense))
    rhos = harness.random_density(d_in, rng).mat + np.zeros((3, 1, 1))
    np.testing.assert_array_equal(apply_map(dense, rhos), loop_apply(dense, rhos))
    mixed = channel_with_dead_rows("mixed", d_in, d_out, rng)
    np.testing.assert_allclose(mixed.completeness(), loop_completeness(mixed), rtol=0, atol=1e-14)
    # From d_out = 3 on, one dead row leaves operator 0 several live rows.
    for seed in range(20 if d_out >= 3 else 0):
        rng = np.random.default_rng(seed)
        ch = channel_with_dead_rows("one dead row", d_in, d_out, rng)
        rhos = harness.random_density(d_in, rng).mat + np.zeros((3, 1, 1))
        np.testing.assert_array_equal(apply_map(ch, rhos), loop_apply(ch, rhos), err_msg=seed)
        np.testing.assert_array_equal(ch.completeness(), product_sum(ch), err_msg=seed)


def test_a_channel_splits_its_operators_by_live_rows_once(monkeypatch):
    splits = []

    def counted(ops):
        splits.append(ops)
        return split_rows(ops)

    split_rows = channels._split_rows
    monkeypatch.setattr(channels, "_split_rows", counted)
    rng = np.random.default_rng(3)
    ch = channel_with_dead_rows("mixed", 3, 4, rng)
    rho = harness.random_density(3, rng).mat
    first = apply_map(ch, rho)
    np.testing.assert_array_equal(apply_map(ch, rho), first)
    ch.completeness()
    assert len(splits) == 1 and splits[0] is ch.kraus


def test_apply_map_rejects_bad_operands_in_every_form():
    ch = harness.random_cptp(2, 3, 2, np.random.default_rng(4))
    with_nan = np.stack([np.eye(2) / 2] * 3).astype(complex)
    with_nan[1, 0, 1] = np.nan
    for form in (ch, superop_from_map(ch), choi_from_map(ch)):
        with pytest.raises(ValueError, match="NaN or Inf"):
            apply_map(form, with_nan)
        with pytest.raises(ValueError, match="square matrix"):
            apply_map(form, np.zeros((3, 2, 3)))
        with pytest.raises(ValueError, match="square matrix"):
            apply_map(form, np.zeros(4))
        with pytest.raises(ValueError, match="empty matrix"):
            apply_map(form, np.zeros((0, 2, 2)))
        with pytest.raises(ValueError, match="operand dimension 3 != map input 2"):
            apply_map(form, np.zeros((5, 3, 3)))


def test_kraus_from_choi_rejects_transpose():
    with pytest.raises(NotCPError):
        kraus_from_choi(choi_from_map(transpose_superoperator(2)))



def test_kraus_from_choi_rejects_a_non_hermitian_choi_matrix():
    c = ChoiMatrix(np.triu(np.ones((4, 4))), d_in=2, d_out=2)
    with pytest.raises(NotCPError, match="Choi matrix is not Hermitian: map is not CP"):
        kraus_from_choi(c)


def test_kraus_from_choi_of_the_zero_map_is_one_zero_operator():
    ch = kraus_from_choi(ChoiMatrix(np.zeros((6, 6)), d_in=2, d_out=3))
    assert ch.kraus.shape == (1, 3, 2) and not ch.kraus.any()


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3)])
def test_choi_kraus_round_trip(dims):
    d_in, d_out = dims
    rng = np.random.default_rng(sum(dims))
    ch = harness.random_cptp(d_in, d_out, 3, rng)
    c = choi_from_map(ch)
    np.testing.assert_allclose(c.mat, choi_oracle(ch, d_in, d_out), atol=1e-12)
    back = kraus_from_choi(c)
    np.testing.assert_allclose(choi_from_map(back).mat, c.mat, atol=1e-9)


def test_apply_identity():
    rng = np.random.default_rng(2)
    rho = harness.random_density(3, rng).mat
    np.testing.assert_allclose(apply_map(identity_channel(3), rho), rho, atol=1e-12)


def test_apply_amplitude_damping_full():
    # two-Kraus hand computation: gamma=1 sends everything to |0><0|
    out = apply_map(amplitude_damping(1.0), np.eye(2) / 2)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_transpose_on_half_of_bell_goes_negative():
    units = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            units.append(np.kron(e, np.eye(2)))
    # rho -> sum_u u rho u has the column-stacking matrix sum_u u^T (x) u
    partial_transpose = Superoperator(sum(np.kron(u.T, u) for u in units))
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    out = apply_map(partial_transpose, np.outer(bell, bell.conj()))
    # eigenvalue oracle: the partially transposed Bell projector is SWAP/2
    eigs = np.linalg.eigvalsh((out + out.conj().T) / 2)
    assert eigs.min() < -0.49


def test_apply_choi_form_matches_kraus():
    rng = np.random.default_rng(8)
    ch = harness.random_cptp(3, 2, 2, rng)
    rho = harness.random_density(3, rng).mat
    np.testing.assert_allclose(apply_map(choi_from_map(ch), rho),
                               apply_map(ch, rho), atol=1e-12)


def test_compose_with_identity():
    rng = np.random.default_rng(21)
    ch = harness.random_cptp(2, 2, 2, rng)
    rho = harness.random_density(2, rng).mat
    fused = compose(identity_channel(2), ch)
    np.testing.assert_allclose(apply_map(fused, rho), apply_map(ch, rho), atol=1e-12)


def test_compose_unitary_with_its_inverse():
    rng = np.random.default_rng(23)
    u = harness.random_unitary(3, rng)
    ch = compose(unitary_channel(u), unitary_channel(u.conj().T))
    rho = harness.random_density(3, rng).mat
    assert np.max(np.abs(apply_map(ch, rho) - rho)) <= 1e-12


def test_compose_matches_superoperator_product():
    rng = np.random.default_rng(25)
    f = harness.random_cptp(3, 2, 2, rng)
    g = harness.random_cptp(2, 3, 2, rng)
    fused = compose(f, g)
    sf, sg = superop_from_map(f), superop_from_map(g)
    product = Superoperator(sf.mat @ sg.mat)
    for _ in range(20):
        rho = harness.random_density(2, rng).mat
        lhs = apply_map(fused, rho)
        mid = apply_map(f, apply_map(g, rho))
        rhs = apply_map(product, rho)
        assert np.max(np.abs(lhs - mid)) <= 1e-10
        assert np.max(np.abs(lhs - rhs)) <= 1e-10



MAP_FORMS = {"kraus": lambda m: m, "superop": superop_from_map, "choi": choi_from_map}


@pytest.mark.parametrize("outer, inner", [("superop", "kraus"), ("kraus", "choi"),
                                          ("choi", "superop")])
def test_compose_with_a_matrix_form_matches_the_kraus_composite(outer, inner):
    rng = np.random.default_rng(29)
    g = harness.random_cptp(2, 3, 2, rng)
    f = harness.random_cptp(3, 4, 2, rng)
    fused = compose(MAP_FORMS[outer](f), MAP_FORMS[inner](g))
    assert isinstance(fused, Superoperator) and (fused.d_in, fused.d_out) == (2, 4)
    kraus = compose(f, g)
    for _ in range(10):
        rho = harness.random_density(2, rng).mat
        np.testing.assert_allclose(apply_map(fused, rho), apply_map(kraus, rho),
                                   rtol=0, atol=1e-12)


def test_compose_associative():
    rng = np.random.default_rng(27)
    a = harness.random_cptp(2, 2, 2, rng)
    b = harness.random_cptp(2, 2, 3, rng)
    c = harness.random_cptp(2, 2, 1, rng)
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    for _ in range(10):
        rho = harness.random_density(2, rng).mat
        assert np.max(np.abs(apply_map(left, rho) - apply_map(right, rho))) <= 1e-9


def test_adjoint_of_unitary_conjugation():
    rng = np.random.default_rng(29)
    u = harness.random_unitary(2, rng)
    dual = adjoint(unitary_channel(u))
    f = harness.random_density(2, rng).mat
    np.testing.assert_allclose(apply_map(dual, f), u.conj().T @ f @ u, atol=1e-12)


def test_adjoint_of_tp_map_preserves_identity():
    rng = np.random.default_rng(31)
    ch = harness.random_cptp(3, 3, 2, rng)
    np.testing.assert_allclose(apply_map(adjoint(ch), np.eye(3)), np.eye(3), atol=1e-10)


def test_adjoint_duality_kraus():
    rng = np.random.default_rng(33)
    ch = harness.random_cptp(3, 2, 2, rng)
    dual = adjoint(ch)
    for _ in range(20):
        rho = harness.random_density(3, rng).mat
        f = harness.random_effect(2, rng).mat
        lhs = np.trace(apply_map(ch, rho) @ f)
        rhs = np.trace(rho @ apply_map(dual, f))
        assert abs(lhs - rhs) <= 1e-10


def test_adjoint_duality_general_superoperator():
    rng = np.random.default_rng(35)
    s = Superoperator(rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4)))
    c = ChoiMatrix(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
                   d_in=2, d_out=3)
    for m in (s, c):
        dual = adjoint(m)
        for _ in range(20):
            rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lhs = np.trace(apply_map(m, rho) @ f)
            rhs = np.trace(rho @ apply_map(dual, f))
            assert abs(lhs - rhs) <= 1e-10


def z_basis_povm():
    return Povm.from_effects([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def test_pullback_through_identity():
    povm = z_basis_povm()
    pulled = pullback_povm(identity_channel(2), povm)
    for before, after in zip(povm.effects, pulled.effects):
        np.testing.assert_allclose(after.mat, before.mat, atol=1e-12)


def test_pullback_through_amplitude_damping():
    # sum_k K† F K by hand: {diag(1, 1/2), diag(0, 1/2)} for gamma = 1/2
    pulled = pullback_povm(amplitude_damping(0.5), z_basis_povm())
    np.testing.assert_allclose(pulled.effects[0].mat, np.diag([1.0, 0.5]), atol=1e-12)
    np.testing.assert_allclose(pulled.effects[1].mat, np.diag([0.0, 0.5]), atol=1e-12)


def test_pullback_unitary_covariance():
    rng = np.random.default_rng(37)
    u = harness.random_unitary(2, rng)
    povm = z_basis_povm()
    pulled = pullback_povm(unitary_channel(u), povm)
    for before, after in zip(povm.effects, pulled.effects):
        np.testing.assert_allclose(after.mat, u.conj().T @ before.mat @ u, atol=1e-12)


def test_pullback_rejects_non_positive_map():
    # trace preserving but not positive: rho -> 2 rho^T - tr(rho) I/2
    s_t = transpose_superoperator(2).mat
    s_dep = superop_from_map(completely_depolarizing(2)).mat
    bad = Superoperator(2.0 * s_t - s_dep)
    with pytest.raises(NonPositiveEffectError):
        pullback_povm(bad, z_basis_povm())


def test_pullback_requires_trace_preservation():
    half = KrausChannel.from_ops([np.eye(2) / np.sqrt(2.0)])
    with pytest.raises(ValueError):
        pullback_povm(half, z_basis_povm())


def test_trace_rule_consistency():
    rng = np.random.default_rng(39)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        ch = harness.random_cptp(d, d, int(rng.integers(1, d + 1)), rng)
        povm = harness.random_povm(d, int(rng.integers(2, 4)), rng)
        rho = harness.random_density(d, rng)
        pulled = pullback_povm(ch, povm)
        out = apply_map(ch, rho.mat)
        for eff, eff_pulled in zip(povm.effects, pulled.effects):
            lhs = np.trace(out @ eff.mat)
            rhs = np.trace(rho.mat @ eff_pulled.mat)
            assert abs(lhs - rhs) <= 1e-10


def test_cp_iff_choi_psd():
    rng = np.random.default_rng(41)
    for _ in range(5):
        ch = harness.random_cptp(2, 2, int(rng.integers(1, 4)), rng)
        assert choi_from_map(ch).is_cp()
    assert not choi_from_map(transpose_superoperator(3)).is_cp()


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), d_in=st.integers(1, 4), d_out=st.integers(1, 4),
       n=st.integers(1, 20), dependent=st.booleans(), zero=st.booleans(), dual=st.booleans())
@example(seed=1, d_in=2, d_out=3, n=2, dependent=True, zero=True, dual=False)  # n < d_in*d_out
@example(seed=2, d_in=3, d_out=2, n=6, dependent=False, zero=False, dual=True)  # n = d_in*d_out
@example(seed=3, d_in=2, d_out=2, n=5, dependent=True, zero=True, dual=True)  # n > d_in*d_out
def test_kraus_choi_spectrum_matches_the_dense_one(seed, d_in, d_out, n, dependent, zero, dual):
    # The Gram-matrix spectrum of a Kraus-built Choi matrix against eigvalsh of the
    # matrix itself, with dependent operators (K, 2K, iK), an all-zero operator, and
    # the transposed stacks of `adjoint`.
    rng = np.random.default_rng(seed)
    ops = rng.standard_normal((n, d_out, d_in)) + 1j * rng.standard_normal((n, d_out, d_in))
    if dependent:
        ops = np.concatenate([ops, 2 * ops[:1], 1j * ops[:1]])
    if zero:
        ops = np.concatenate([ops, np.zeros((1, d_out, d_in))])
    channel = KrausChannel.from_ops(ops)
    if dual:
        channel = adjoint(channel)
    choi = choi_from_map(channel)
    dense = np.linalg.eigvalsh(choi.mat)
    eps = DEFAULT_TOL.eps
    assert choi.eigenvalues.shape == dense.shape
    assert np.all(np.diff(choi.eigenvalues) >= 0)  # ascending, as eigvalsh returns them
    assert np.max(np.abs(choi.eigenvalues - dense)) <= eps * max(1.0, float(dense.max()))
    assert kraus_rank(channel) == int(np.sum(dense > DEFAULT_TOL.rank_cutoff(dense.max())))
    assert choi.is_cp()
    assert choi.min_eigenvalue() >= -eps


def test_linearity_of_superoperator_form():
    # linear by construction (plain matrix action); only float re-association remains
    rng = np.random.default_rng(43)
    s = Superoperator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    r1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    r2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p1, p2 = 0.3, 0.7
    lhs = apply_map(s, p1 * r1 + p2 * r2)
    rhs = p1 * apply_map(s, r1) + p2 * apply_map(s, r2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_linearity_kraus():
    rng = np.random.default_rng(45)
    ch = harness.random_cptp(3, 3, 2, rng)
    r1 = harness.random_density(3, rng).mat
    r2 = harness.random_density(3, rng).mat
    lhs = apply_map(ch, 0.25 * r1 + 0.75 * r2)
    rhs = 0.25 * apply_map(ch, r1) + 0.75 * apply_map(ch, r2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4)])
def test_superoperator_choi_conversion_consistency(dims):
    d_in, d_out = dims
    rng = np.random.default_rng(47)
    ch = harness.random_cptp(d_in, d_out, 2, rng)
    s = superop_from_map(ch)
    oracle = choi_oracle(s, d_in, d_out)
    c_from_s = choi_from_map(s)
    np.testing.assert_allclose(c_from_s.mat, oracle, atol=1e-12)
    np.testing.assert_allclose(c_from_s.mat, choi_from_map(ch).mat, atol=1e-12)
    back = superop_from_map(ChoiMatrix(oracle, d_in=d_in, d_out=d_out))
    np.testing.assert_allclose(back.mat, s.mat, atol=1e-12)
    np.testing.assert_allclose(superop_from_map(c_from_s).mat, s.mat, atol=1e-12)


def test_pullback_follows_the_tolerance_of_the_povm():
    loose = Tolerances(eps=1e-3)
    effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    # trace preserving only up to 1e-6
    shrunk = KrausChannel.from_ops([np.sqrt(1.0 - 1e-6) * np.eye(2)])
    with pytest.raises(ValueError, match="not trace preserving"):
        pullback_povm(shrunk, Povm.from_effects(effects))
    pulled = pullback_povm(shrunk, Povm.from_effects(effects, tol=loose))
    assert pulled.tol is loose
    assert all(eff.tol is loose for eff in pulled.effects)
    # rho -> rho + tr(rho X) Z with tr Z = 0 pulls P = |0><0| back to P + X, whose
    # lowest eigenvalue is -1e-6
    z = np.diag([1.0, -1.0])
    x = np.diag([0.0, -1e-6])
    phi = Superoperator(np.eye(4) + np.outer(vec(z), vec(x.T)))
    with pytest.raises(NonPositiveEffectError):
        pullback_povm(phi, Povm.from_effects(effects))
    pulled = pullback_povm(phi, Povm.from_effects(effects, tol=loose))
    np.testing.assert_allclose(pulled.effects[0].mat, effects[0] + x, atol=1e-12)
