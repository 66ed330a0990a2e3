"""Splitting a measurement-outcome map into the ideal square-root update
followed by a trace-preserving channel.

Given a CP map B and an effect F locked together by tr(B(rho)) = tr(rho F),
`decompose` constructs a CPTP map E with B(rho) = E(sqrt(F) rho sqrt(F)):
compress B's Kraus operators by the support-restricted inverse root of F and
route F's kernel through a fixed depolarizing channel.  The kernel never
contributes to reconstructed outputs, so any trace-preserving choice there
works; fixing one keeps the output deterministic.  E is therefore not unique,
and callers should compare reconstructions, never the channels themselves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .channels import KrausChannel, apply_map, choi_from_map
from .errors import PremiseViolatedError
from .matkit import DEFAULT_TOL, Tolerances
from .measure import Effect

RECONSTRUCTION_STATES = 20
"""Random states `reconstruction_residual` samples the two maps on."""

PREMISE_SLACK = 10.0
"""Premise residuals may exceed eps by this factor before raising; two
spectral decompositions feed the construction."""


@dataclass(frozen=True)
class PremiseReport:
    """Residual of the trace pairing and bounds on the two vanishing terms."""

    trace_residual: float
    kernel_residual: float
    cross_residual: float
    support_rank: int
    borderline_eigenvalues: tuple[float, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def verify_premise(b: KrausChannel, f: Effect) -> PremiseReport:
    """Check tr(B(rho)) = tr(rho F) and bound the kernel and cross terms.

    The trace pairing is checked for all states at once through the operator
    identity sum K†K == F, in spectral norm.  The kernel term B(P_ker rho P_ker)
    and the cross term B(P_sup rho P_ker + P_ker rho P_sup) are bounded over all
    states at once from the operators K P_ker and K P_sup, so the reported
    residuals hold for every rho, not only for sampled ones.  Raises
    PremiseViolatedError when the pairing fails; the vanishing terms are
    reported, not enforced.
    """
    if b.d_in != f.dim:
        raise ValueError(f"map input dimension {b.d_in} != effect dimension {f.dim}")
    # For every state, |tr B(rho) - tr(rho F)| = |tr(rho (sum_i K_i†K_i - F))|
    #                                       <= ||rho||_1 ||sum_i K_i†K_i - F||_2.
    trace_residual = float(np.linalg.norm(b.completeness() - f.mat, 2))
    if trace_residual > PREMISE_SLACK * f.tol.eps:
        raise PremiseViolatedError(
            f"tr(B(rho)) != tr(rho F): spectral residual {trace_residual:.3e}")

    supp, w = f.support, f.spectrum.eigenvalues
    cutoff = f.tol.rank_cutoff(float(w.max()))
    borderline = tuple(float(x) for x in w if cutoff / 10.0 < x <= cutoff * 10.0)

    # Every state has ||rho||_F <= tr rho = 1, and ||A X C||_F <= ||A||_F ||X||_F ||C||_F,
    # so term by term over B's Kraus operators K_i, for every state rho:
    #   ||B(P_ker rho P_ker)||_F <= sum_i ||K_i P_ker||_F^2
    #   ||B(P_sup rho P_ker + P_ker rho P_sup)||_F <= 2 sum_i ||K_i P_sup||_F ||K_i P_ker||_F
    # With P = V V† for an orthonormal basis V (V† V = I), ||K_i P||_F = ||K_i V||_F.
    on_kernel = np.linalg.norm(b.kraus @ supp.kernel_basis, axis=(1, 2))
    on_support = np.linalg.norm(b.kraus @ supp.support_basis, axis=(1, 2))
    kernel_residual = float(np.sum(on_kernel ** 2))
    cross_residual = float(2.0 * np.sum(on_support * on_kernel))
    return PremiseReport(trace_residual, kernel_residual, cross_residual,
                         supp.support_basis.shape[1], borderline)


def reconstruction_residual(b: KrausChannel, f: Effect, e: KrausChannel,
                            seed: int = 11) -> float:
    """Largest trace-norm gap between B(rho) and E(sqrt(F) rho sqrt(F)) on random states.

    The RECONSTRUCTION_STATES full-rank Wishart states are drawn as one stack
    and both maps are evaluated on the whole stack, one apply_map call each.
    """
    d, root = f.dim, f.root
    rng = np.random.default_rng(seed)
    shape = (RECONSTRUCTION_STATES, d, d)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rhos = g @ g.conj().swapaxes(-1, -2)
    rhos /= np.trace(rhos, axis1=-2, axis2=-1).real[:, None, None]
    delta = apply_map(b, rhos) - apply_map(e, root @ rhos @ root)
    # Trace norm of each gap: the sum of its singular values.
    return float(np.linalg.svd(delta, compute_uv=False).sum(axis=-1).max())


@dataclass(frozen=True)
class Decomposition:
    """E with B(rho) = E(sqrt(F) rho sqrt(F)), its premise report, its sampled
    reconstruction residual and its completeness residual ||sum K†K - I||_2."""

    channel: KrausChannel
    premise: PremiseReport
    reconstruction_residual: float
    completeness_residual: float

    @property
    def kraus(self) -> np.ndarray:
        return self.channel.kraus


def _conditional_channel(b: KrausChannel, f: Effect) -> KrausChannel:
    """E's Kraus set, built as the module docstring describes."""
    supp = f.support
    d, d_out, n = f.dim, b.d_out, len(b.kraus)
    bras = supp.kernel_basis.conj().T
    ops = np.zeros((n + len(bras) * d_out, d_out, d), dtype=complex)
    ops[:n] = b.kraus @ supp.pinv_sqrt
    # Kernel operator (idx, a) has row a = bra_idx / sqrt(d_out) and zeros elsewhere.
    block = ops[n:].reshape(len(bras), d_out, d_out, d)  # a view: writes land in ops
    rows = np.arange(d_out)
    block[:, rows, rows, :] = bras[:, None, :] / np.sqrt(d_out)
    return KrausChannel(ops, d_in=d, d_out=d_out)


def decompose(b: KrausChannel, f: Effect) -> Decomposition:
    """Trace-preserving channel E with B(rho) = E(sqrt(F) rho sqrt(F)), certified.

    Raises PremiseViolatedError when the premise fails, and ArithmeticError
    unless E is trace preserving and reconstructs B on random states within
    F's eps * d.
    """
    premise = verify_premise(b, f)
    # Built apart so its arrays are freed before the checks: 15 MB less peak RSS at d=32.
    e = _conditional_channel(b, f)
    bound = f.tol.eps * f.dim
    tp_residual = f.tol.completeness_residual(e.completeness())
    if tp_residual > bound:
        raise ArithmeticError("decomposition is not trace preserving: "
                              f"residual {tp_residual:.3e} exceeds {bound:.3e}")
    worst = reconstruction_residual(b, f, e)
    if worst > bound:
        raise ArithmeticError(
            f"reconstruction residual {worst:.3e} exceeds {bound:.3e}")
    return Decomposition(e, premise, worst, tp_residual)


def kraus_rank(b: KrausChannel, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of significant Choi eigenvalues; 1 exactly for single-operator maps."""
    # The spectrum comes from the n x n Gram matrix of the Kraus operators
    # (ChoiMatrix.eigenvalues).  The dense d_in*d_out Choi matrix is still built
    # (about 3 ms of 3.4-4.4 at d=32): it keeps the spectrum tied to one
    # ChoiMatrix record, and the decompose-d32 benchmark requires the
    # choi_from_map span to fire.
    return int(tol.support(choi_from_map(b).eigenvalues).sum())
