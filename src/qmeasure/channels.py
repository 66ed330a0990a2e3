"""Linear maps on operators in three interconvertible forms (Kraus, Choi,
superoperator), with composition, the trace-pairing adjoint, and POVM
pullback through a channel."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import matkit
from .errors import NonPositiveEffectError, NotCPError
from .matkit import DEFAULT_TOL, Tolerances, dagger


def vec(m) -> np.ndarray:
    """Column-stacking vectorization: vec(M)[i + j*d] = M[i, j]."""
    return np.asarray(m, dtype=complex).T.reshape(-1)


def _store_dims(m) -> tuple[int, int]:
    """`m.d_in` and `m.d_out` stored on the map as Python ints (matkit.positive_ints)."""
    dims = matkit.positive_ints((m.d_in, m.d_out), "map dimensions")
    object.__setattr__(m, "d_in", dims[0])
    object.__setattr__(m, "d_out", dims[1])
    return dims


class _RowSplit(NamedTuple):
    """A Kraus stack grouped by its operators' live (nonzero) rows.

    `dense` holds the operators whose every row is live.  An operator with one
    live row v at row a (and d_out > 1) is |a><v|; each distinct such v is
    stored once, as a row of `rows`, and spread[j, a] counts the operators
    |a><rows[j]|.  `partial` holds each remaining operator with dead rows as its
    live-row indices and those rows; an all-zero operator is dropped.
    """

    dense: np.ndarray
    rows: np.ndarray
    spread: np.ndarray
    partial: tuple[tuple[np.ndarray, np.ndarray], ...]


def _split_rows(ops: np.ndarray) -> _RowSplit:
    """The _RowSplit of a read-only (n, d_out, d_in) Kraus stack."""
    _, d_out, d_in = ops.shape
    live = ops.any(axis=-1)
    if live.all():
        return _RowSplit(ops, np.zeros((0, d_in), complex), np.zeros((0, d_out), complex), ())
    # One pass over the operators: a numpy call per group costs more than the
    # loop on the few operators of most channels.
    dense, slot, which, at, partial = [], {}, [], [], []
    for k, mask in enumerate(live.tolist()):
        n_live = mask.count(True)
        if n_live == d_out:  # every nonzero operator when d_out = 1
            dense.append(k)
        elif n_live == 1:
            a = mask.index(True)
            which.append(slot.setdefault(ops[k, a].tobytes(), len(slot)))
            at.append(a)
        elif n_live:
            rows = np.flatnonzero(mask)
            partial.append((rows, ops[k, rows]))
    # The keys of `slot` are the distinct rows' bytes, in order of first appearance.
    rows = np.frombuffer(b"".join(slot), dtype=complex).reshape(-1, d_in)
    spread = np.zeros((len(slot), d_out), complex)
    np.add.at(spread, (which, at), 1.0)
    return _RowSplit(ops[dense], rows, spread, tuple(partial))


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
        d_in, d_out = _store_dims(self)
        ops = np.array(self.kraus, dtype=complex)
        if ops.ndim != 3 or ops.shape[0] == 0 or ops.shape[1:] != (d_out, d_in):
            raise ValueError(f"Kraus operators must stack to shape "
                             f"(n >= 1, {d_out}, {d_in}), got {ops.shape}")
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

    @cached_property
    def _row_split(self) -> _RowSplit:
        """The operators grouped by their live rows, taken once per channel."""
        return _split_rows(self.kraus)

    def completeness(self) -> np.ndarray:
        """Sum of K† K; equals the identity for trace-preserving channels."""
        # The dense operators are summed product by product rather than as one V†V
        # of the Stinespring stack: that single product rounds differently (by
        # ~1e-16), which is enough to rotate the basis `decompose` picks for a
        # degenerate kernel.  The live rows of the other operators are one V†V,
        # each distinct one-row bra weighted by the operators that share it.
        split = self._row_split
        total = (split.dense.conj().transpose(0, 2, 1) @ split.dense).sum(axis=0)
        if len(split.rows) or split.partial:
            live = np.concatenate([split.rows, *(part for _, part in split.partial)])
            weight = np.concatenate([split.spread.real.sum(axis=1),
                                     np.ones(len(live) - len(split.rows))])
            total += (live.conj().T * weight) @ live
        return total

    def is_trace_preserving(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return tol.is_complete(self.completeness())

    def is_trace_nonincreasing(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        w = np.linalg.eigvalsh(matkit.hermitian_part(self.completeness()))
        return tol.spectrum_violation(w, upper=1.0) is None


def _keep_or_freeze(m: np.ndarray, owned: bool) -> np.ndarray:
    """`m` made read-only if this module has just built it, else a read-only copy.

    A caller's array is copied, even a read-only one (a writeable view of it may
    exist).  An array built here is kept, so one dense matrix is held, not two;
    where a reshape could avoid the copy it is a view of another read-only
    matrix of this module, which is as safe to share.
    """
    if not owned:
        return matkit.freeze(m)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Superoperator:
    """General linear map as a matrix acting on column-stacked operators."""

    mat: np.ndarray
    d_in: int
    d_out: int

    # True when `mat` is an array this module has just built and nothing else
    # references; passed by this module alone.
    _owned: bool = field(default=False, repr=False, kw_only=True)

    def __post_init__(self):
        d_in, d_out = _store_dims(self)
        m = matkit.require_matrix(self.mat)
        if m.shape != (d_out ** 2, d_in ** 2):
            raise ValueError(f"superoperator shape {m.shape} != ({d_out ** 2}, {d_in ** 2})")
        object.__setattr__(self, "mat", _keep_or_freeze(m, self._owned))


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi operator C = sum_ij |i><j| (x) E(|i><j|) on input (x) output."""

    mat: np.ndarray
    d_in: int
    d_out: int

    # Rows vec(K_k) of the Kraus stack `mat` was built from (mat = factor^T conj(factor)),
    # and whether `mat` is an array choi_from_map has just built; passed by it alone.
    _factor: np.ndarray | None = field(default=None, repr=False, kw_only=True)
    _owned: bool = field(default=False, repr=False, kw_only=True)

    def __post_init__(self):
        d_in, d_out = _store_dims(self)
        m = matkit.require_square(self.mat)
        if m.shape[0] != d_in * d_out:
            raise ValueError(f"Choi dimension {m.shape[0]} != {d_in}*{d_out}")
        object.__setattr__(self, "mat", _keep_or_freeze(m, self._owned))

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
        # Each operator acts on its live rows only (KrausChannel._row_split): a zero
        # row of K is a zero row and column of K r K†.  The dense and partial
        # operators loop, each over the whole stack (an (n, ..., d_out, d_out)
        # batched product would hold n copies of the output).  A one-row operator
        # |a><v| adds (v r v†) |a><a|, so the one-row operators, d_out·dim ker of
        # them in E's kernel block (README), take one product for every distinct
        # v at once and one more to spread the results onto the diagonal.
        split = m._row_split
        out = np.zeros(r.shape[:-2] + (m.d_out, m.d_out), dtype=complex)
        for k in split.dense:
            out += k @ r @ dagger(k)
        if len(split.rows):
            vrv = ((split.rows @ r) * split.rows.conj()).sum(axis=-1)
            diag = np.arange(m.d_out)
            out[..., diag, diag] += vrv @ split.spread
        for rows, part in split.partial:
            out[..., rows[:, None], rows] += part @ r @ dagger(part)
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
    if isinstance(m, KrausChannel):
        # S4[b, a, j, i] = sum_k conj(K_k[b, j]) K_k[a, i] (see _tensor): one matmul per
        # (b, a) written straight into the superoperator's layout, with no Choi matrix.
        ops = m.kraus
        s4 = ops.conj().transpose(1, 2, 0)[:, None] @ ops.transpose(1, 0, 2)[None]
        return Superoperator(s4.reshape(m.d_out ** 2, m.d_in ** 2), d_in=m.d_in,
                             d_out=m.d_out, _owned=True)
    if isinstance(m, ChoiMatrix):
        return Superoperator(_reshuffle(m), d_in=m.d_in, d_out=m.d_out, _owned=True)
    raise TypeError(f"not a map form: {type(m).__name__}")


def choi_from_map(m) -> ChoiMatrix:
    """Choi operator of a map in the fixed input (x) output convention."""
    if isinstance(m, ChoiMatrix):
        return m
    if isinstance(m, KrausChannel):
        # Row k of `vecs` is vec(K_k) (column-stacked); C = sum_k vec(K_k) vec(K_k)†.
        vecs = matkit.freeze(m.kraus.transpose(0, 2, 1).reshape(len(m.kraus), -1))
        return ChoiMatrix(vecs.T @ vecs.conj(), d_in=m.d_in, d_out=m.d_out, _factor=vecs,
                          _owned=True)
    if isinstance(m, Superoperator):
        return ChoiMatrix(_reshuffle(m), d_in=m.d_in, d_out=m.d_out, _owned=True)
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
    keep = tol.support(w)
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
    return Superoperator(sf.mat @ sg.mat, d_in=g.d_in, d_out=f.d_out, _owned=True)


def adjoint(m):
    """Trace-pairing dual: tr(apply(m, rho) F) == tr(rho apply(adjoint(m), F)) for all rho, F."""
    if isinstance(m, KrausChannel):
        return KrausChannel(m.kraus.conj().transpose(0, 2, 1), d_in=m.d_out, d_out=m.d_in)
    # adjoint(E)(|a><b|)[i, j] = E(|j><i|)[b, a]: reverse all four superoperator indices.
    dual = _tensor(superop_from_map(m)).transpose(3, 2, 1, 0)
    return Superoperator(dual.reshape(m.d_in ** 2, m.d_out ** 2), d_in=m.d_out, d_out=m.d_in,
                         _owned=True)


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
