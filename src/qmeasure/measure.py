"""Effects, POVMs, and instruments: outcome probabilities, post-measurement
states, and fusion of successive measurements into a single one."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import channels, matkit
from .channels import KrausChannel, apply_map
from .matkit import DEFAULT_TOL, Tolerances
from .states import DensityOperator

P_FLOOR = 1e-12
"""Outcome probabilities at or below this floor are reported without a post-state."""

LABEL_SEPARATOR = "·"
"""Joiner for outcome labels of fused measurements."""


@dataclass(frozen=True, eq=False)
class Effect:
    """Positive operator with spectrum inside [0, 1] (up to eps slack); `support`
    and `root` are built from its one eigh_desc `spectrum`, all taken once, read-only."""

    mat: np.ndarray
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        m = self.tol.hermitian(self.mat, "effect")
        excess = self.tol.spectrum_violation(np.linalg.eigvalsh(m), upper=1.0)
        if excess is not None:
            raise ValueError(
                f"effect spectrum leaves [0, 1] by {excess:.3e} (eps = {self.tol.eps:.3e})")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def spectrum(self) -> matkit.HermitianDecomposition:
        return _read_only(matkit.eigh_desc(self.mat, self.tol))

    @cached_property
    def support(self) -> matkit.SupportDecomposition:
        return _read_only(matkit.psd_support(self.spectrum, self.tol))

    @cached_property
    def root(self) -> np.ndarray:
        root = matkit.psd_sqrt(self.spectrum, self.tol)
        root.setflags(write=False)
        return root


def _read_only(parts: tuple) -> tuple:
    for part in parts:
        part.setflags(write=False)
    return parts


def _labels_for(labels, n: int, items: str) -> list[str]:
    """`labels` as strings ("0" ... when None); ValueError unless there is one per item."""
    if labels is None:
        return [str(i) for i in range(n)]
    labels = [str(label) for label in labels]
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} {items}")
    return labels


@dataclass(frozen=True, eq=False)
class Povm:
    """Labelled effects summing to the identity."""

    outcomes: tuple[tuple[str, Effect], ...]
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("POVM needs at least one outcome")
        outcomes = tuple((str(label), eff) for label, eff in self.outcomes)
        if len({label for label, _ in outcomes}) != len(outcomes):
            counts = Counter(label for label, _ in outcomes)
            repeat = next(label for label, n in counts.items() if n > 1)
            raise ValueError(f"POVM outcome labels must be unique ({repeat!r} repeats)")
        dims = {eff.dim for _, eff in outcomes}
        if len(dims) != 1:
            raise ValueError("POVM effects live on different dimensions")
        violation = self.tol.completeness_violation(sum(eff.mat for _, eff in outcomes))
        if violation:
            raise ValueError("POVM completeness residual %.3e exceeds %.3e" % violation)
        object.__setattr__(self, "outcomes", outcomes)

    @classmethod
    def from_effects(cls, mats, labels=None, tol: Tolerances = DEFAULT_TOL) -> "Povm":
        labels = _labels_for(labels, len(mats), "effects")
        built = tuple(
            (label, m if isinstance(m, Effect) else Effect(m, tol))
            for label, m in zip(labels, mats))
        return cls(built, tol)

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    @property
    def effects(self) -> tuple[Effect, ...]:
        return tuple(eff for _, eff in self.outcomes)

    def effect(self, label: str) -> Effect:
        for name, eff in self.outcomes:
            if name == label:
                return eff
        raise KeyError(f"no outcome labelled {label!r}")


@dataclass(frozen=True, eq=False)
class Instrument:
    """Outcome-labelled CP maps whose total is trace preserving.

    `povm` is the induced POVM (per outcome, F = sum K† K), built once here, so
    an instrument that constructs always induces a POVM.  That POVM checks the
    outcome set (at least one outcome, unique labels) and the total; the
    instrument checks only what its POVM cannot see: that the maps share their
    dimensions, and which outcome's effect leaves [0, 1].
    """

    outcomes: tuple[tuple[str, KrausChannel], ...]
    tol: Tolerances = DEFAULT_TOL
    povm: Povm = field(init=False, repr=False)

    def __post_init__(self):
        outcomes = tuple((str(label), ch) for label, ch in self.outcomes)
        if len({(ch.d_in, ch.d_out) for _, ch in outcomes}) > 1:
            raise ValueError("instrument outcome maps must share input and output dimensions")
        effects = []
        for label, ch in outcomes:
            try:
                effects.append((label, Effect(ch.completeness(), self.tol)))
            except ValueError as exc:
                raise ValueError(f"instrument outcome {label!r}: {exc}") from None
        try:
            povm = Povm(tuple(effects), self.tol)
        except ValueError as exc:
            raise ValueError(f"instrument's {exc}") from None
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "povm", povm)

    @property
    def d_in(self) -> int:
        return self.outcomes[0][1].d_in

    @property
    def d_out(self) -> int:
        return self.outcomes[0][1].d_out

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    def channel(self, label: str) -> KrausChannel:
        for name, ch in self.outcomes:
            if name == label:
                return ch
        raise KeyError(f"no outcome labelled {label!r}")


def probabilities(rho: DensityOperator, p: Povm) -> list[tuple[str, float]]:
    """Outcome distribution tr(rho F) over the POVM, clamped into [0, 1]."""
    if rho.dim != p.dim:
        raise ValueError(f"state dimension {rho.dim} != POVM dimension {p.dim}")
    values = [float((rho.mat @ eff.mat).trace().real) for _, eff in p.outcomes]
    # DensityOperator accepts |tr rho - 1| <= eps_r and eigenvalues >= -eps_r, at most
    # d - 1 of them negative, so ||rho||_1 <= tr rho + 2 (d - 1) eps_r <= 1 + (2d - 1) eps_r;
    # Povm accepts ||sum F - I||_2 <= eps d.  Hence, before clamping,
    #   |sum_i tr(rho F_i) - 1| <= ||rho||_1 ||sum F - I||_2 + |tr rho - 1|
    #                           <= (1 + (2d - 1) eps_r) eps d + eps_r,
    # and n d^2 machine epsilons cover the rounding in the n traces of d x d products.
    d, eps, eps_r = p.dim, p.tol.eps, rho.tol.eps
    bound = ((1 + (2 * d - 1) * eps_r) * eps * d + eps_r
             + len(values) * d * d * np.finfo(float).eps)
    defect = abs(sum(values) - 1.0)
    if defect > bound:
        raise ArithmeticError(
            f"probabilities sum differs from 1 by {defect:.3e} (bound {bound:.3e})")
    return [(label, min(max(val, 0.0), 1.0)) for (label, _), val in zip(p.outcomes, values)]


def induced_povm(inst: Instrument) -> Povm:
    """The POVM the instrument implements: per outcome, F = sum K† K."""
    return inst.povm


def luders_from_povm(p: Povm) -> Instrument:
    """Ideal instrument for a POVM: outcome maps rho -> sqrt(F) rho sqrt(F)."""
    return Instrument(tuple((label, KrausChannel(eff.root[None])) for label, eff in p.outcomes),
                      p.tol)


def from_generalized(ms, labels=None, tol: Tolerances = DEFAULT_TOL) -> Instrument:
    """Instrument of measurement operators {M}: outcome maps rho -> M rho M†.

    Requires the completeness relation sum M† M = I, which the instrument's
    induced POVM checks.
    """
    mats = [matkit.require_matrix(m) for m in ms]
    labels = _labels_for(labels, len(mats), "measurement operators")
    return Instrument(tuple((label, KrausChannel(m[None])) for label, m in zip(labels, mats)),
                      tol)


def from_effect_channel_pairs(pairs, labels=None, tol: Tolerances = DEFAULT_TOL) -> Instrument:
    """Instrument with outcome maps E(sqrt(F) rho sqrt(F)) from (effect, channel) pairs.

    The effects must form a POVM and every conditional channel must be trace
    preserving; the induced POVM of the result reproduces the input effects,
    and `Instrument` holds their sum to the identity.
    """
    pairs = list(pairs)
    labels = _labels_for(labels, len(pairs), "(effect, channel) pairs")
    outs = []
    for label, (eff, ch) in zip(labels, pairs):
        effect = eff if isinstance(eff, Effect) else Effect(eff, tol)
        if not isinstance(ch, KrausChannel):
            raise TypeError("outcome channels must be KrausChannel instances")
        if ch.d_in != effect.dim:
            raise ValueError(f"channel input {ch.d_in} does not match effect dimension {effect.dim}")
        if not ch.is_trace_preserving(tol):
            raise ValueError(f"conditional channel for outcome {label!r} is not trace preserving")
        outs.append((label, KrausChannel(ch.kraus @ effect.root)))
    return Instrument(tuple(outs), tol)


@dataclass(frozen=True)
class OutcomeResult:
    """One measurement branch; state is None when the probability is below P_FLOOR."""

    label: str
    probability: float
    state: DensityOperator | None


def branch_state(unnormalized, probability: float,
                 tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Normalize an unnormalized branch output into a DensityOperator.

    The normalized output is validated as it is, so eigenvalues in [-eps, 0)
    stay as DensityOperator accepts them.  Dividing by a small probability
    amplifies the absolute roundoff in the branch output, so a rejected output
    whose lowest eigenvalue lies within that amplified noise of [-eps, 0) has
    its negative eigenvalues clipped to zero and is renormalized; anything
    more negative is genuine and still raises.
    """
    mat = matkit.hermitian_part(unnormalized) / probability
    try:
        return DensityOperator(mat, tol)
    except ValueError:
        w, v = np.linalg.eigh(mat)
        noise = 100.0 * np.finfo(float).eps / probability
        if not -(tol.eps + noise) <= w[0] < 0.0:
            raise
    mat = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return DensityOperator(mat / float(mat.trace().real), tol)


def branch(unnormalized, tol: Tolerances = DEFAULT_TOL) -> tuple[float, DensityOperator | None]:
    """One branch of an unnormalized output: its trace, clamped into [0, 1], and
    its normalized state, which is None at or below P_FLOOR."""
    prob = min(max(float(np.asarray(unnormalized).trace().real), 0.0), 1.0)
    if prob <= P_FLOOR:
        return prob, None
    return prob, branch_state(unnormalized, prob, tol)


def apply_instrument(inst: Instrument, rho: DensityOperator) -> list[OutcomeResult]:
    """All measurement branches: probability tr(B(rho)) and normalized post-state."""
    if rho.dim != inst.d_in:
        raise ValueError(f"state dimension {rho.dim} != instrument input {inst.d_in}")
    return [OutcomeResult(label, *branch(apply_map(ch, rho.mat), inst.tol))
            for label, ch in inst.outcomes]


def fuse_sequential(first: Instrument, second: Instrument) -> Instrument:
    """One instrument equivalent to running `first` and then `second`.

    Outcome (mu, nu) is labelled "mu·nu" and carries the composed map
    B_nu ∘ B_mu; the induced effects are the second-stage effects pulled
    back through the first-stage maps.
    """
    if second.d_in != first.d_out:
        raise ValueError(
            f"cannot chain: first stage outputs {first.d_out}, second expects {second.d_in}")
    outs = []
    for mu, b_mu in first.outcomes:
        for nu, b_nu in second.outcomes:
            outs.append((f"{mu}{LABEL_SEPARATOR}{nu}", channels.compose(b_nu, b_mu)))
    return Instrument(tuple(outs), first.tol)
