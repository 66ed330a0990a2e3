"""Density operators, ensembles of states, purification, and remote steering
of ensemble decompositions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import TargetMismatchError, UnsupportedMemberError
from .matkit import DEFAULT_TOL, Tolerances, dagger


def density_matrix_from(state) -> np.ndarray:
    """Accept a ket (1-D, normalized here) or a square matrix; return a density matrix."""
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        nrm = float(np.linalg.norm(arr))
        if nrm == 0.0:
            raise ValueError("zero state vector")
        ket = arr / nrm
        return np.outer(ket, ket.conj())
    return matkit.require_square(arr)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, PSD, unit-trace operator; invariants are checked on construction."""

    mat: np.ndarray
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        m = self.tol.hermitian(self.mat, "density operator")
        eps = self.tol.eps
        excess = self.tol.spectrum_violation(np.linalg.eigvalsh(m))
        if excess is not None:
            raise ValueError(
                f"density operator has negative eigenvalue {-excess:.3e} (eps = {eps:.3e})")
        defect = abs(complex(np.trace(m)) - 1.0)
        if defect > eps:
            raise ValueError(
                f"density operator trace differs from 1 by {defect:.3e} (eps = {eps:.3e})")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_vector(cls, psi, tol: Tolerances = DEFAULT_TOL) -> "DensityOperator":
        return cls(density_matrix_from(np.asarray(psi, dtype=complex).reshape(-1)), tol)

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)

    def is_pure(self) -> bool:
        return abs(self.purity() - 1.0) <= 10 * self.tol.eps


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted list of states whose weights form a probability distribution."""

    members: tuple[tuple[float, DensityOperator], ...]
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        dims = {s.dim for _, s in self.members}
        if len(dims) != 1:
            raise ValueError(f"ensemble members live on different dimensions: {sorted(dims)}")
        weights = np.array([w for w, _ in self.members], dtype=float)
        if not np.all(np.isfinite(weights)):
            raise ValueError("ensemble weights must be finite")
        if np.any(weights < -self.tol.eps):
            raise ValueError("ensemble weights must be nonnegative")
        defect = abs(float(weights.sum()) - 1.0)
        if defect > self.tol.eps:
            raise ValueError(
                f"ensemble weights sum differs from 1 by {defect:.3e} (eps = {self.tol.eps:.3e})")
        object.__setattr__(self, "members",
                           tuple((float(w), s) for w, s in self.members))

    @classmethod
    def of(cls, *members, tol: Tolerances = DEFAULT_TOL) -> "Ensemble":
        """Build from (weight, state) pairs; states may be kets, matrices, or DensityOperators."""
        coerced = []
        for w, s in members:
            state = s if isinstance(s, DensityOperator) else DensityOperator(density_matrix_from(s), tol)
            coerced.append((float(w), state))
        return cls(tuple(coerced), tol)

    @property
    def dim(self) -> int:
        return self.members[0][1].dim


def mix(e: Ensemble) -> DensityOperator:
    """Weighted average of the ensemble members."""
    acc = np.zeros((e.dim, e.dim), dtype=complex)
    for w, s in e.members:
        acc += w * s.mat
    return DensityOperator(acc, e.tol)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Density operator on a two-factor tensor space, dims = (d_first, d_second)."""

    dims: tuple[int, int]
    state: DensityOperator

    def __post_init__(self):
        d_a, d_b = matkit.positive_ints(self.dims, "factor dimensions")
        if self.state.dim != d_a * d_b:
            raise ValueError(f"state dimension {self.state.dim} != {d_a}*{d_b}")
        object.__setattr__(self, "dims", (d_a, d_b))

    @classmethod
    def from_vector(cls, psi, dims, tol: Tolerances = DEFAULT_TOL) -> "BipartiteState":
        return cls(dims, DensityOperator.from_vector(psi, tol))

    def reduced(self, keep: int) -> DensityOperator:
        return DensityOperator(matkit.partial_trace(self.state.mat, self.dims, keep),
                               self.state.tol)

    def steered(self, f) -> np.ndarray:
        """tr_1((F (x) I) rho), unnormalized: what the second factor holds when a
        measurement of the first reads the outcome with effect matrix F."""
        joint = matkit.tensor_product(f, np.eye(self.dims[1])) @ self.state.mat
        return matkit.partial_trace(joint, self.dims, keep=1)


def pure_ket(rho: DensityOperator) -> np.ndarray:
    """State vector of a pure density operator (phase-fixed)."""
    if not rho.is_pure():
        raise ValueError(f"state is not pure (purity {rho.purity():.6g})")
    _, v = matkit.eigh_desc(rho.mat, rho.tol)
    return v[:, 0]


def purify(rho: DensityOperator) -> BipartiteState:
    """Pure state on ancilla (x) system whose second-factor marginal is rho.

    The ancilla copies the system dimension and the Schmidt vectors follow
    the descending eigenvalue order, so the output is reproducible.
    """
    w, v = matkit.eigh_desc(rho.mat, rho.tol)
    d = rho.dim
    # Row k of the (ancilla, system) coefficient matrix is sqrt(w_k) v_k.  As in
    # psd_sqrt, eigenvalues under the rank cutoff are zeroed: a sqrt would turn
    # 1e-17 rounding noise into Schmidt weight of order 1e-9 outside rho's
    # support, which steering_povm's verification then reads as error.
    w = np.where(rho.tol.support(w), w, 0.0)
    psi = (v * np.sqrt(w)).T.reshape(-1)
    psi /= np.linalg.norm(psi)
    return BipartiteState.from_vector(psi, (d, d), rho.tol)


def steering_povm(psi: BipartiteState, target: Ensemble):
    """POVM on the first factor that remotely prepares `target` on the second.

    Outcome i leaves the second factor holding the unnormalized state
    q_i |phi_i><phi_i|.  Construction: compress each weighted target member
    by the inverse square root of the second marginal, transpose, and carry
    it to the first factor through the Schmidt-basis identification; the
    projector onto the first factor's unused subspace is folded into the
    highest-weight outcome.  The advertised action is re-verified before the
    POVM is returned.
    """
    from .measure import Povm

    tol = psi.state.tol
    d_a, d_b = psi.dims
    ket = pure_ket(psi.state)
    if target.dim != d_b:
        raise ValueError(f"target dimension {target.dim} != second factor dimension {d_b}")

    rho_b = psi.reduced(1)
    avg = mix(target)
    mismatch = float(np.max(np.abs(avg.mat - rho_b.mat)))
    if mismatch > tol.eps:
        raise TargetMismatchError(f"target ensemble misses the reduced state by {mismatch:.3e}")

    u, s, vh = np.linalg.svd(ket.reshape(d_a, d_b))
    # The Schmidt SVD is the one spectrum of the second marginal,
    # rho_B = vh^T diag(s^2) conj(vh): the rows vh[rank:] span its kernel.
    rank = int(tol.support(s ** 2).sum())
    kernel_rows = vh[rank:]
    for idx, (_, member) in enumerate(target.members):
        leak = float(np.trace(kernel_rows.conj() @ member.mat @ kernel_rows.T).real)
        if leak > tol.eps:
            raise UnsupportedMemberError(f"member {idx} leaves the support (leak {leak:.3e})")

    alice_basis = u[:, :rank]
    bras = vh[:rank].conj() / s[:rank, None]  # = vh[:rank].conj() @ rho_B^(-1/2)

    effects = []
    for weight, member in target.members:
        tilde = bras @ (weight * member.mat) @ bras.conj().T
        effects.append(alice_basis @ tilde.T @ dagger(alice_basis))

    leftover = np.eye(d_a, dtype=complex) - alice_basis @ dagger(alice_basis)
    top = max(range(len(target.members)), key=lambda i: target.members[i][0])
    effects[top] += leftover

    povm = Povm.from_effects(effects, tol=tol)
    for eff, (weight, member) in zip(povm.effects, target.members):
        err = float(np.max(np.abs(psi.steered(eff.mat) - weight * member.mat)))
        if err > tol.eps:
            raise RuntimeError(f"steering construction failed verification ({err:.3e})")
    return povm
