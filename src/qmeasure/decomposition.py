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

from dataclasses import dataclass, field

import numpy as np

from . import matkit
from .channels import KrausChannel, apply_map, choi_from_map
from .errors import PremiseViolatedError
from .matkit import DEFAULT_TOL, Tolerances, dagger
from .measure import Effect

PREMISE_SLACK = 10.0
"""Premise residuals may exceed eps by this factor before raising; two
spectral decompositions feed the construction."""


@dataclass(frozen=True)
class PremiseReport:
    """Residual of the trace pairing and bounds on the two vanishing terms,
    with the support decomposition of F they were computed from."""

    trace_residual: float
    kernel_residual: float
    cross_residual: float
    support_rank: int
    borderline_eigenvalues: tuple[float, ...]
    support: matkit.SupportDecomposition = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "trace_residual": self.trace_residual,
            "kernel_residual": self.kernel_residual,
            "cross_residual": self.cross_residual,
            "support_rank": self.support_rank,
            "borderline_eigenvalues": list(self.borderline_eigenvalues),
        }


def _random_density_matrix(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ dagger(g)
    return rho / float(np.trace(rho).real)


def verify_premise(b: KrausChannel, f: Effect,
                   tol: Tolerances = DEFAULT_TOL) -> PremiseReport:
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
    if trace_residual > PREMISE_SLACK * tol.eps:
        raise PremiseViolatedError(
            f"tr(B(rho)) != tr(rho F): spectral residual {trace_residual:.3e}")

    supp = matkit.psd_support(f.mat, tol=tol)
    w = supp.eigenvalues
    cutoff = tol.rank_cutoff(float(w.max()))
    support_rank = int(np.sum(w > cutoff))
    borderline = tuple(float(x) for x in w if cutoff / 10.0 < x <= cutoff * 10.0)

    # Every state has ||rho||_F <= tr rho = 1, and ||A X C||_F <= ||A||_F ||X||_F ||C||_F,
    # so term by term over B's Kraus operators K_i, for every state rho:
    #   ||B(P_ker rho P_ker)||_F <= sum_i ||K_i P_ker||_F^2
    #   ||B(P_sup rho P_ker + P_ker rho P_sup)||_F <= 2 sum_i ||K_i P_sup||_F ||K_i P_ker||_F
    on_kernel = np.linalg.norm(b.kraus @ supp.kernel, axis=(1, 2))
    on_support = np.linalg.norm(b.kraus @ supp.support, axis=(1, 2))
    kernel_residual = float(np.sum(on_kernel ** 2))
    cross_residual = float(2.0 * np.sum(on_support * on_kernel))
    return PremiseReport(trace_residual, kernel_residual, cross_residual,
                         support_rank, borderline, supp)


def reconstruction_residual(b: KrausChannel, f: Effect, e: KrausChannel,
                            trials: int = 20, seed: int = 11,
                            tol: Tolerances = DEFAULT_TOL) -> float:
    """Largest trace-norm gap between B(rho) and E(sqrt(F) rho sqrt(F)) on random states."""
    root = matkit.psd_sqrt(f.mat, tol)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rho = _random_density_matrix(f.dim, rng)
        delta = apply_map(b, rho) - apply_map(e, root @ rho @ root)
        worst = max(worst, matkit.trace_norm(delta))
    return worst


def _check_decomposition(b: KrausChannel, f: Effect, e: KrausChannel,
                         tol: Tolerances) -> float:
    """Raise ArithmeticError unless E is trace preserving and reconstructs B
    within eps * d; returns the reconstruction residual."""
    violation = tol.completeness_violation(e.completeness())
    if violation:
        raise ArithmeticError(
            "decomposition is not trace preserving: residual %.3e exceeds %.3e" % violation)
    worst = reconstruction_residual(b, f, e, tol=tol)
    bound = tol.eps * f.dim
    if worst > bound:
        raise ArithmeticError(
            f"reconstruction residual {worst:.3e} exceeds {bound:.3e}")
    return worst


def decompose(b: KrausChannel, f: Effect, check: bool = True,
              tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Trace-preserving channel E with B(rho) = E(sqrt(F) rho sqrt(F)).

    Kraus set: each of B's operators compressed by the support-restricted
    inverse root of F, plus a depolarize-to-maximally-mixed block on F's
    kernel.  With check=True (default) the reconstruction and trace
    preservation are re-verified on random states before returning.
    """
    supp = verify_premise(b, f, tol=tol).support
    d, d_out, n = f.dim, b.d_out, len(b.kraus)
    kernel_w, kernel_v = matkit.eigh_desc(supp.kernel, tol)
    bras = kernel_v[:, kernel_w > 0.5].conj().T  # projector spectrum is {0, 1}
    ops = np.zeros((n + len(bras) * d_out, d_out, d), dtype=complex)
    ops[:n] = b.kraus @ supp.pinv_sqrt
    # Kernel operator (idx, a) has row a = bra_idx / sqrt(d_out) and zeros elsewhere.
    block = ops[n:].reshape(len(bras), d_out, d_out, d)  # a view: writes land in ops
    rows = np.arange(d_out)
    block[:, rows, rows, :] = bras[:, None, :] / np.sqrt(d_out)
    result = KrausChannel(ops, d_in=d, d_out=d_out)
    if check:
        _check_decomposition(b, f, result, tol)
    return result


def kraus_rank(b: KrausChannel, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of significant Choi eigenvalues; 1 exactly for single-operator maps."""
    choi = choi_from_map(b)
    w = np.linalg.eigvalsh(matkit.hermitian_part(choi.mat))
    cutoff = tol.rank_cutoff(float(w.max()))
    return int(np.sum(w > cutoff))
