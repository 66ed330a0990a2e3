"""The small-matrix checks return the bits of numpy's wrapper expressions.

`Tolerances.hermitian`, `spectral_norm`, `completeness_residual`,
`tensor_product` and `trace_norm` compute their values with ndarray methods
and one broadcast product instead of numpy's module-level wrappers.  Each is
compared here with the wrapper expression it replaces, written out, by bytes
(or float.hex), and on bad input by exception type and message.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeasure import matkit, measure
from qmeasure.matkit import Tolerances

NAN, INF = float("nan"), float("inf")


def wrapper_hermitian(tol, a, what):
    """Tolerances.hermitian through np.all / np.max and a second adjoint."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.size == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not bool(np.max(np.abs(m - m.conj().T)) <= tol.eps):
        raise ValueError(f"{what} is not Hermitian within tolerance")
    m = np.asarray(m, dtype=complex)
    h = (m + m.conj().T) / 2
    h.setflags(write=False)
    return h


def outcome(f, *args):
    """What a call leaves: its value's dtype, shape, bytes and writeability, or its
    exception's type and message."""
    try:
        value = f(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)
    return value.dtype, value.shape, value.tobytes(), value.flags.writeable


ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 3.7, -2.25])


@st.composite
def matrices(draw, shapes):
    """A complex array of one of `shapes`: random entries with some exact values
    (signed zeros among them), optionally made Hermitian and then moved off it
    by a chosen amount, with one entry optionally NaN or +-inf."""
    shape = draw(st.sampled_from(shapes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    exact = draw(st.lists(st.tuples(st.integers(0, 63), ENTRIES, ENTRIES), max_size=6))
    for index, re, im in exact:
        if a.size:
            a.flat[index % a.size] = complex(re, im)
    if len(shape) == 2 and shape[0] == shape[1] and draw(st.booleans()):
        a = a + a.conj().T
        scale = draw(st.sampled_from([0.0, 1e-12, 4e-10, 1e-9, 2e-9, 1e-3]))
        a += scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if draw(st.booleans()):
        a = a.real.copy()
    special = draw(st.sampled_from([None, NAN, INF, -INF]))
    if special is not None and a.size:
        a.flat[draw(st.integers(0, a.size - 1))] = special
    return a


SQUARE = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]
RECTANGULAR = [(1, 3), (2, 3), (3, 2), (4, 1), (2, 5)]
BAD = [(3,), (0, 0), (0, 2), (2, 0), (2, 2, 2)]


@settings(deadline=None, max_examples=400)
@given(a=matrices(SQUARE + RECTANGULAR + BAD),
       eps=st.sampled_from([1e-9, 1e-12, 1e-30, 0.5]))
@example(a=np.array([[1.0, 1e-9], [0.0, 1.0]]), eps=1e-9)  # the gap is eps: accepted
@example(a=np.array([[1.0, 1.5e-9], [0.0, 1.0]]), eps=1e-9)  # beyond eps: refused
@example(a=np.array([[-0.0, 0.0], [-0.0, 0.0]]), eps=1e-9)
def test_tolerances_hermitian_is_the_wrapper_expression(a, eps):
    tol = Tolerances(eps=eps)
    assert outcome(tol.hermitian, a, "matrix") == outcome(wrapper_hermitian, tol, a, "matrix")


@settings(deadline=None, max_examples=300)
@given(a=matrices(SQUARE + RECTANGULAR))
def test_spectral_norm_is_numpys_2_norm(a):
    try:
        expected = np.linalg.norm(a, 2).hex()
    except np.linalg.LinAlgError as exc:  # SVD of a matrix with NaN entries
        with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
            matkit.spectral_norm(a)
        return
    assert matkit.spectral_norm(a).hex() == expected


@settings(deadline=None, max_examples=200)
@given(a=matrices(SQUARE))
def test_completeness_residual_is_the_2_norm_of_the_gap(a):
    a = np.where(np.isfinite(a), a, 0.0)
    expected = float(np.linalg.norm(a - np.eye(a.shape[0]), 2))
    assert Tolerances().completeness_residual(a).hex() == expected.hex()


@st.composite
def factors(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(st.lists(st.tuples(ENTRIES | st.floats(-4, 4), ENTRIES),
                           min_size=rows * cols, max_size=rows * cols))
    return np.array([complex(re, im) for re, im in values]).reshape(rows, cols)


@settings(deadline=None, max_examples=300)
@given(a=factors(), b=factors(), real=st.booleans())
def test_tensor_product_is_kron(a, b, real):
    if real:
        a, b = a.real.copy(), b.real.copy()
    expected = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    out = matkit.tensor_product(a, b)
    assert out.shape == expected.shape and out.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=200)
@given(a=matrices(SQUARE + RECTANGULAR))
def test_trace_norm_is_the_summed_singular_values(a):
    a = np.where(np.isfinite(a), a, 0.0)
    expected = float(np.sum(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)))
    assert matkit.trace_norm(a).hex() == expected.hex()


NESTED = [[0.5, 0.25 - 0.125j], [0.25 + 0.125j, 0.5]]


def branch_parts(m):
    prob, state = measure.branch(m)
    return prob, state.mat.tobytes()


@pytest.mark.parametrize("f", [
    branch_parts,
    lambda m: matkit.is_hermitian(m, 1e-9),
    lambda m: matkit.tensor_product(m, m).tobytes(),
    lambda m: Tolerances().completeness_residual(m),
    matkit.trace_norm,
], ids=["branch", "is_hermitian", "tensor_product", "completeness_residual", "trace_norm"])
def test_helpers_take_nested_lists_as_arrays(f):
    assert f(NESTED) == f(np.array(NESTED))
