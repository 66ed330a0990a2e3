"""Linear maps on operators in three interconvertible forms (Kraus, Choi,
superoperator), with composition, the trace-pairing adjoint, and POVM
pullback through a channel."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matkit
from .errors import NonPositiveEffectError, NotCPError
from .matkit import DEFAULT_TOL, Tolerances, dagger


def vec(m) -> np.ndarray:
    """Column-stacking vectorization: vec(M)[i + j*d] = M[i, j]."""
    return np.asarray(m, dtype=complex).T.reshape(-1)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive map rho -> sum_k K_k rho K_k†.

    `kraus` is one read-only complex array of shape (n, d_out, d_in) with K_k
    at kraus[k]; kraus.reshape(-1, d_in) is the Stinespring stack [K_1; ...; K_n].
    """

    kraus: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        ops = np.array(self.kraus, dtype=complex)
        if ops.ndim != 3 or ops.shape[0] == 0 or ops.shape[1:] != (self.d_out, self.d_in):
            raise ValueError(f"Kraus operators must stack to shape "
                             f"(n >= 1, {self.d_out}, {self.d_in}), got {ops.shape}")
        if not np.all(np.isfinite(ops)):
            raise ValueError("Kraus operators contain NaN or Inf entries")
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    @classmethod
    def from_ops(cls, ops) -> "KrausChannel":
        """Channel of a non-empty sequence (or stack) of equal-shape operators."""
        arr = np.asarray(ops, dtype=complex)
        if arr.ndim != 3:
            raise ValueError(f"expected a non-empty stack of matrices, got shape {arr.shape}")
        return cls(arr, d_in=arr.shape[2], d_out=arr.shape[1])

    def completeness(self) -> np.ndarray:
        """Sum of K† K; equals the identity for trace-preserving channels."""
        # Summed product by product rather than as one V†V of the Stinespring
        # stack: that single product rounds differently (by ~1e-16), which is
        # enough to rotate the basis `decompose` picks for a degenerate kernel.
        return (self.kraus.conj().transpose(0, 2, 1) @ self.kraus).sum(axis=0)

    def is_trace_preserving(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return tol.is_complete(self.completeness())

    def is_trace_nonincreasing(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        w = np.linalg.eigvalsh(matkit.hermitian_part(self.completeness()))
        return tol.spectrum_violation(w, upper=1.0) is None


@dataclass(frozen=True, eq=False)
class Superoperator:
    """General linear map as a matrix acting on column-stacked operators."""

    mat: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        m = matkit.require_matrix(self.mat)
        if m.shape != (self.d_out ** 2, self.d_in ** 2):
            raise ValueError(
                f"superoperator shape {m.shape} != ({self.d_out ** 2}, {self.d_in ** 2})")
        object.__setattr__(self, "mat", matkit.freeze(m))


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi operator C = sum_ij |i><j| (x) E(|i><j|) on input (x) output."""

    mat: np.ndarray
    d_in: int
    d_out: int

    # Rows vec(K_k) of the Kraus stack `mat` was built from (mat = factor^T conj(factor));
    # set by choi_from_map alone.
    _factor: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = matkit.require_square(self.mat)
        if m.shape[0] != self.d_in * self.d_out:
            raise ValueError(f"Choi dimension {m.shape[0]} != {self.d_in}*{self.d_out}")
        object.__setattr__(self, "mat", matkit.freeze(m))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of the Hermitian part, taken once per Choi matrix.

        From n < d_in*d_out Kraus operators it is the spectrum of their n x n
        Gram matrix, which shares the Choi matrix's nonzero eigenvalues
        (Horn & Johnson, Thm 1.3.22), padded with exact zeros.
        """
        f, dim = self._factor, self.mat.shape[0]
        if f is not None and len(f) < dim:
            gram = np.linalg.eigvalsh(f.conj() @ f.T)
            return np.sort(np.concatenate([np.zeros(dim - len(f)), gram]))
        return np.linalg.eigvalsh(matkit.hermitian_part(self.mat))

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues.min())

    def is_hermitian_preserving(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return matkit.is_hermitian(self.mat, tol.eps)

    def is_cp(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return (self.is_hermitian_preserving(tol)
                and tol.spectrum_violation(self.eigenvalues) is None)


def _tensor(m) -> np.ndarray:
    """Four-index view of a Superoperator or ChoiMatrix, the one place their layouts live.

    Both forms store E(|i><j|)[a, b]: the superoperator (column-stacked vec)
    at S[a + b*d_out, i + j*d_in], viewed here as S4[b, a, j, i] of shape
    (d_out, d_out, d_in, d_in); the Choi matrix at C[i*d_out + a, j*d_out + b],
    viewed as C4[i, a, j, b] of shape (d_in, d_out, d_in, d_out).
    """
    if isinstance(m, Superoperator):
        return m.mat.reshape(m.d_out, m.d_out, m.d_in, m.d_in)
    return m.mat.reshape(m.d_in, m.d_out, m.d_in, m.d_out)


def _reshuffle(m) -> np.ndarray:
    """Matrix of the other form: the Choi matrix of a Superoperator and vice versa.

    transpose(3, 1, 2, 0) swaps i and b, which takes S4 to C4 and, being its
    own inverse, C4 to S4 (Wood, Biamonte & Cory, arXiv:1111.6950).
    """
    t = _tensor(m).transpose(3, 1, 2, 0)
    return t.reshape(t.shape[0] * t.shape[1], -1)


def apply_map(m, rho) -> np.ndarray:
    """Evaluate a map (in any form) on a matrix, or on each matrix of a
    (..., d_in, d_in) stack at once; the result has shape (..., d_out, d_out)."""
    r = matkit.require_square_stack(rho)
    if not isinstance(m, (KrausChannel, Superoperator, ChoiMatrix)):
        raise TypeError(f"not a map form: {type(m).__name__}")
    if r.shape[-1] != m.d_in:
        raise ValueError(f"operand dimension {r.shape[-1]} != map input {m.d_in}")
    if isinstance(m, KrausChannel):
        # A loop over operators, each applied to the whole stack: at 260 operators
        # of d=32, batched matmul-and-sum and tensordot are slower, and an
        # (n, ..., d_out, d_out) intermediate would hold n copies of the output.
        out = np.zeros(r.shape[:-2] + (m.d_out, m.d_out), dtype=complex)
        for k in m.kraus:
            out += k @ r @ dagger(k)
        return out
    if isinstance(m, Superoperator):
        # Row-wise column-stacked vecs: vecs[..., i + j*d_in] = r[..., i, j].
        vecs = r.swapaxes(-1, -2).reshape(r.shape[:-2] + (-1,))
        out = (vecs @ m.mat.T).reshape(r.shape[:-2] + (m.d_out, m.d_out))
        return out.swapaxes(-1, -2)
    return np.einsum("...ij,iajb->...ab", r, _tensor(m))


def superop_from_map(m) -> Superoperator:
    """Matrix form of a map given in any representation."""
    if isinstance(m, Superoperator):
        return m
    if isinstance(m, (KrausChannel, ChoiMatrix)):
        return Superoperator(_reshuffle(choi_from_map(m)), d_in=m.d_in, d_out=m.d_out)
    raise TypeError(f"not a map form: {type(m).__name__}")


def choi_from_map(m) -> ChoiMatrix:
    """Choi operator of a map in the fixed input (x) output convention."""
    if isinstance(m, ChoiMatrix):
        return m
    if isinstance(m, KrausChannel):
        # Row k of `vecs` is vec(K_k) (column-stacked); C = sum_k vec(K_k) vec(K_k)†.
        vecs = m.kraus.transpose(0, 2, 1).reshape(len(m.kraus), -1)
        choi = ChoiMatrix(vecs.T @ vecs.conj(), d_in=m.d_in, d_out=m.d_out)
        object.__setattr__(choi, "_factor", matkit.freeze(vecs))
        return choi
    if isinstance(m, Superoperator):
        return ChoiMatrix(_reshuffle(m), d_in=m.d_in, d_out=m.d_out)
    raise TypeError(f"not a map form: {type(m).__name__}")


def kraus_from_choi(c: ChoiMatrix, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Kraus form of a CP map from the spectral decomposition of its Choi operator.

    Operators are ordered by descending Choi eigenvalue; raises NotCPError
    when the Choi operator is not PSD.
    """
    if not matkit.is_hermitian(c.mat, tol.eps):
        raise NotCPError("Choi matrix is not Hermitian: map is not CP")
    w, v = matkit.eigh_desc(c.mat, tol)
    excess = tol.spectrum_violation(w)
    if excess is not None:
        raise NotCPError(f"Choi eigenvalue {-excess:.3e} < 0: map is not CP")
    keep = w > tol.rank_cutoff(float(w.max()))
    if not keep.any():
        return KrausChannel(np.zeros((1, c.d_out, c.d_in)), d_in=c.d_in, d_out=c.d_out)
    # Column k of v is vec(K_k / sqrt(w_k)) in the Choi's input (x) output order.
    ops = (v[:, keep] * np.sqrt(w[keep])).T.reshape(-1, c.d_in, c.d_out).transpose(0, 2, 1)
    return KrausChannel(ops, d_in=c.d_in, d_out=c.d_out)


def compose(f, g):
    """The map that applies g first, then f."""
    if f.d_in != g.d_out:
        raise ValueError(
            f"cannot compose: outer map takes dimension {f.d_in}, inner produces {g.d_out}")
    if isinstance(f, KrausChannel) and isinstance(g, KrausChannel):
        # Operator (i, j) is F_i G_j, in row-major order over (i, j).
        ops = (f.kraus[:, None] @ g.kraus[None, :]).reshape(-1, f.d_out, g.d_in)
        return KrausChannel(ops, d_in=g.d_in, d_out=f.d_out)
    sf, sg = superop_from_map(f), superop_from_map(g)
    return Superoperator(sf.mat @ sg.mat, d_in=g.d_in, d_out=f.d_out)


def adjoint(m):
    """Trace-pairing dual: tr(apply(m, rho) F) == tr(rho apply(adjoint(m), F)) for all rho, F."""
    if isinstance(m, KrausChannel):
        return KrausChannel(m.kraus.conj().transpose(0, 2, 1), d_in=m.d_out, d_out=m.d_in)
    # adjoint(E)(|a><b|)[i, j] = E(|j><i|)[b, a]: reverse all four superoperator indices.
    dual = _tensor(superop_from_map(m)).transpose(3, 2, 1, 0)
    return Superoperator(dual.reshape(m.d_in ** 2, m.d_out ** 2), d_in=m.d_out, d_out=m.d_in)


def pullback_povm(m, p):
    """Effects of measuring p after evolving through the trace-preserving map m.

    Every check runs under p's tolerance.  Raises NonPositiveEffectError when
    a pulled-back element fails the Effect check (such a map cannot precede a
    measurement).
    """
    from .measure import Effect, Povm

    tol = p.tol
    dual = adjoint(m)
    if not tol.is_complete(apply_map(dual, np.eye(m.d_out, dtype=complex))):
        raise ValueError("map is not trace preserving; a POVM cannot be pulled back through it")
    if p.dim != m.d_out:
        raise ValueError(f"POVM dimension {p.dim} != map output dimension {m.d_out}")
    pulled = []
    for label, eff in p.outcomes:
        try:
            pulled.append((label, Effect(apply_map(dual, eff.mat), tol)))
        except ValueError as exc:
            raise NonPositiveEffectError(f"pulled-back effect {label!r}: {exc}") from None
    return Povm(tuple(pulled), tol)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(np.eye(d, dtype=complex)[None], d_in=d, d_out=d)


def unitary_channel(u, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Conjugation by a unitary, validated as such."""
    m = matkit.require_square(u)
    d = m.shape[0]
    if not tol.is_complete(dagger(m) @ m):
        raise ValueError("operator is not unitary within tolerance")
    return KrausChannel(m[None], d_in=d, d_out=d)


def transpose_superoperator(d: int) -> Superoperator:
    """The positive but not completely positive map rho -> rho^T."""
    # vec(rho^T) is vec(rho) with its two d-dimensional index factors swapped.
    swap = np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(1, 0, 2, 3)
    return Superoperator(swap.reshape(d * d, d * d), d_in=d, d_out=d)


def completely_depolarizing(d: int) -> KrausChannel:
    """rho -> tr(rho) I/d."""
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return KrausChannel(units / np.sqrt(d), d_in=d, d_out=d)
