"""Dense complex linear algebra: Hermitian eigendecomposition, PSD functions,
tensor product, partial trace, and polar decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotPSDError


@dataclass(frozen=True)
class Tolerances:
    """Numerical context: absolute tolerance eps plus a relative rank cutoff."""

    eps: float = 1e-9
    rank_tol_factor: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps!r}")
        if not (math.isfinite(self.rank_tol_factor) and self.rank_tol_factor >= 0):
            raise ValueError(
                f"rank_tol_factor must be finite and >= 0, got {self.rank_tol_factor!r}")

    def rank_cutoff(self, lam_max: float) -> float:
        """Absolute eigenvalue cutoff for rank decisions, scaled to lam_max."""
        return self.rank_tol_factor * max(float(lam_max), 0.0)

    def support(self, w) -> np.ndarray:
        """The rank rule, which every rank decision reads: the eigenvalues `w` above
        the rank cutoff of max(w).  It gates no sign; callers check that where it applies."""
        w = np.asarray(w)
        return w > self.rank_cutoff(float(w.max()))

    def completeness_residual(self, total) -> float:
        """Spectral norm ||total - I||_2 of a d x d operator meant to be the identity.

        For every state, |sum_i tr(rho F_i) - tr rho| <= ||rho||_1 ||sum_i F_i - I||_2,
        so this residual bounds the probability defect; an entrywise maximum
        does not (it can be d times smaller).
        """
        m = np.asarray(total)
        return float(spectral_norm(m - np.eye(m.shape[0])))

    def completeness_violation(self, total) -> tuple[float, float] | None:
        """(residual, bound) when `total` (a sum of K†K or of effects) misses the
        identity by more than eps * d, else None."""
        residual, bound = self.completeness_residual(total), self.eps * len(total)
        return (residual, bound) if residual > bound else None

    def is_complete(self, total) -> bool:
        return self.completeness_violation(total) is None

    def spectrum_violation(self, w, upper: float = math.inf) -> float | None:
        """How far the eigenvalues `w` leave [0, upper] when that exceeds eps, else None.

        upper = inf is positivity (states, Choi matrices); upper = 1 is 0 <= F <= I.
        """
        w = np.asarray(w)
        excess = max(-float(w.min()), float(w.max()) - upper)
        return excess if excess > self.eps else None

    def hermitian(self, a, what: str) -> np.ndarray:
        """Hermitian part of the square matrix `a`, which must equal its adjoint
        within eps entrywise; the ValueError otherwise names `what`.  The part is
        a new array that nothing else references, returned read-only."""
        m = require_square(a)
        adj = m.conj().T  # one adjoint for the test and the Hermitian part
        if not np.abs(m - adj).max() <= self.eps:
            raise ValueError(f"{what} is not Hermitian within tolerance")
        h = (m + adj) / 2
        h.setflags(write=False)
        return h


DEFAULT_TOL = Tolerances()


def positive_ints(values, what: str) -> tuple[int, ...]:
    """`values` as Python ints; a value that is not a positive integer (3.0 and
    np.int64(3) are; NaN, +-inf, True and np.True_ are not) raises ValueError
    naming `what`."""
    try:
        ints = tuple(int(v) for v in values)
    except (ValueError, OverflowError):  # "2.5" as text, NaN, +-inf
        ints = None
    if (ints is None or ints != tuple(values) or min(ints) < 1
            or any(isinstance(v, (bool, np.bool_)) for v in values)):
        raise ValueError(f"{what} must be positive integers, got "
                         + ", ".join(repr(v) for v in values))
    return ints


def _require_finite(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def require_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return _require_finite(m)


def require_square(a) -> np.ndarray:
    m = require_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def require_square_stack(a) -> np.ndarray:
    """Coerce a square matrix, or a (..., d, d) stack of them, to a complex
    array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return _require_finite(m)


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def freeze(a) -> np.ndarray:
    """Read-only complex copy, even of a read-only array (a writeable view of it may exist)."""
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def hermitian_part(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    return (m + m.conj().T) / 2


def is_hermitian(a, eps: float) -> bool:
    m = np.asarray(a)
    return bool(np.abs(m - m.conj().T).max() <= eps)


def trace_norm(a) -> float:
    """Trace norm ||A||_1 = sum of singular values."""
    return float(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False).sum())


def spectral_norm(a) -> np.floating:
    """Spectral norm ||A||_2 of a matrix: its largest singular value.  This is the
    reduction np.linalg.norm(a, 2) makes, without that function's axis handling."""
    return np.linalg.svd(a, compute_uv=False).max(initial=0.0)


class HermitianDecomposition(NamedTuple):
    """Eigenvalues sorted descending with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _phase_fixed(v: np.ndarray, eps: float) -> np.ndarray:
    """Rotate each column's global phase so its first significant entry is positive real
    (the largest entry when none exceeds eps; all-zero columns stay as they are)."""
    mag = np.abs(v)
    significant = mag > eps
    anchor = np.where(significant.any(axis=0), significant.argmax(axis=0), mag.argmax(axis=0))
    picked = anchor, np.arange(v.shape[1])
    phase = np.ones(v.shape[1], dtype=complex)
    np.divide(v[picked].conj(), mag[picked], out=phase, where=mag[picked] != 0.0)
    return v * phase


def eigh_desc(a, tol: Tolerances = DEFAULT_TOL) -> HermitianDecomposition:
    """Hermitian eigendecomposition with a reproducible ordering.

    Eigenvalues come out descending; near-ties are broken by comparing the
    phase-fixed eigenvector entries, so repeated runs order degenerate
    subspaces the same way.  Raises ValueError unless `a` is Hermitian within eps.
    """
    w, v = np.linalg.eigh(tol.hermitian(a, "matrix"))
    cols = _phase_fixed(v, tol.eps)
    # Sort keys, most significant first: the eigenvalue rounded to 12 places
    # (Python's correctly rounded `round`; np.round can differ in the last
    # place), descending, then each entry's rounded real and imaginary part, in
    # entry order, descending.  lexsort reads its keys last-first and is stable.
    entry_keys = -np.round(np.ascontiguousarray(cols.T).view(float), 12)  # row k: column k
    value_key = [-round(float(x), 12) for x in w]
    order = np.lexsort(np.vstack([entry_keys.T[::-1], value_key]))
    return HermitianDecomposition(w[order], cols[:, order])


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; composite row index is i_a * rows_b + i_b.  It is the
    one broadcast product np.kron makes, without its axis bookkeeping."""
    ma, mb = require_matrix(a), require_matrix(b)
    (ra, ca), (rb, cb) = ma.shape, mb.shape
    return (ma[:, None, :, None] * mb[None, :, None, :]).reshape(ra * rb, ca * cb)


def partial_trace(m, dims, keep: int) -> np.ndarray:
    """Partial trace of an operator on A (x) B with dims = (d_A, d_B).

    keep=0 returns the A marginal, keep=1 the B marginal.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    mat = require_square(m)
    if mat.shape[0] != d_a * d_b:
        raise ValueError(f"matrix dimension {mat.shape[0]} does not equal {d_a}*{d_b}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 (first factor) or 1 (second factor)")
    t = mat.reshape(d_a, d_b, d_a, d_b)
    if keep == 0:
        return np.einsum("akbk->ab", t)
    return np.einsum("kakb->ab", t)


def _support_mask(w: np.ndarray, tol: Tolerances) -> np.ndarray:
    """`tol.support(w)`, after a NotPSDError if an eigenvalue is below -eps."""
    excess = tol.spectrum_violation(w)
    if excess is not None:
        raise NotPSDError(f"eigenvalue {-excess:.3e} is below -eps = {-tol.eps:.1e}")
    return tol.support(w)


def psd_sqrt(spectrum: HermitianDecomposition, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a PSD matrix, given as its eigh_desc spectrum.

    Eigenvalues in [-eps, 0) are treated as rounding noise and clamped to zero;
    anything below -eps raises NotPSDError.  Positive eigenvalues under the rank
    cutoff are zeroed as well, so the root's kernel agrees with psd_support's (a
    sqrt would otherwise amplify 1e-16 assembly noise into 1e-8 kernel components).
    """
    w, v = spectrum
    w = np.where(_support_mask(w, tol), w, 0.0)
    return hermitian_part((v * np.sqrt(w)) @ dagger(v))


class SupportDecomposition(NamedTuple):
    """Orthonormal support and kernel bases (eigenvector columns) and the sqrt of
    the support-restricted inverse."""

    support_basis: np.ndarray
    kernel_basis: np.ndarray
    pinv_sqrt: np.ndarray


def psd_support(spectrum: HermitianDecomposition,
                tol: Tolerances = DEFAULT_TOL) -> SupportDecomposition:
    """Support and kernel bases of a PSD matrix A, given as its eigh_desc spectrum;
    pinv_sqrt vanishes on the kernel and pinv_sqrt @ A @ pinv_sqrt projects onto the support."""
    w, v = spectrum
    mask = _support_mask(w, tol)
    vs = v[:, mask]
    pinv_sqrt = (vs / np.sqrt(w[mask])) @ dagger(vs)
    return SupportDecomposition(vs, v[:, ~mask], hermitian_part(pinv_sqrt))


def polar_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition m = V @ P with V unitary and P = sqrt(m† m).

    V pairs left with right singular vectors, which keeps it unitary (and
    deterministic) even when m is singular.
    """
    mat = require_square(m)
    u, s, vh = np.linalg.svd(mat)
    v_unitary = u @ vh
    p = dagger(vh) @ (s[:, None] * vh)
    return v_unitary, hermitian_part(p)
