"""Numerical property suites: no-signaling checks, ensemble-equivalence and
nonlinearity witnesses, and the fixed demonstration scenarios."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import matkit
from .channels import KrausChannel, unitary_channel
from .decomposition import decompose
from .errors import MixMismatchError
from .matkit import DEFAULT_TOL, Tolerances, dagger
from .measure import (P_FLOOR, Effect, Instrument, Povm, apply_instrument, branch,
                      from_effect_channel_pairs, luders_from_povm)
from .states import BipartiteState, DensityOperator, Ensemble, mix, purify


# ---------------------------------------------------------------------------
# Random object generation (all driven by an explicit rng for reproducibility)
# ---------------------------------------------------------------------------

def random_density(d: int, rng, rank: int | None = None,
                   tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    r = d if rank is None else max(1, min(int(rank), d))
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ dagger(g)
    return DensityOperator(m / float(m.trace().real), tol)


def random_isometry(d_in: int, d_total: int, rng) -> np.ndarray:
    """d_total x d_in matrix with orthonormal columns (requires d_total >= d_in)."""
    if d_total < d_in:
        raise ValueError("an isometry needs d_total >= d_in")
    g = rng.standard_normal((d_total, d_in)) + 1j * rng.standard_normal((d_total, d_in))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[None, :]


def random_unitary(d: int, rng) -> np.ndarray:
    return random_isometry(d, d, rng)


def random_cptp(d_in: int, d_out: int, kraus_count: int, rng) -> KrausChannel:
    """Random channel: a Stinespring isometry into output (x) environment,
    with the environment traced out (its blocks become the Kraus operators)."""
    v = random_isometry(d_in, d_out * kraus_count, rng)
    return KrausChannel(v.reshape(kraus_count, d_out, d_in))


def random_effect(d: int, rng, zero_eigenvalues: int = 0,
                  tol: Tolerances = DEFAULT_TOL) -> Effect:
    """Random effect with uniform spectrum; optionally with an exact kernel."""
    u = random_unitary(d, rng)
    vals = rng.uniform(0.0, 1.0, size=d)
    zeros = min(int(zero_eigenvalues), d - 1)
    if zeros > 0:
        vals[rng.choice(d, size=zeros, replace=False)] = 0.0
    return Effect((u * vals) @ dagger(u), tol)


def random_povm(d: int, n_outcomes: int, rng, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """Wishart-generated effects normalized to completeness."""
    parts = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        parts.append(g @ dagger(g))
    total = np.sum(parts, axis=0)
    w, v = matkit.eigh_desc(total, tol)
    inv_root = (v * (1.0 / np.sqrt(w))) @ dagger(v)
    mats = [inv_root @ g @ inv_root for g in parts]
    return Povm.from_effects(mats, tol=tol)


def random_instrument(d_in: int, n_outcomes: int, kraus_per_outcome: int, rng,
                      tol: Tolerances = DEFAULT_TOL, d_out: int | None = None) -> Instrument:
    """Random instrument: Kraus blocks of one random channel, grouped per outcome."""
    if d_out is None:
        d_out = d_in
    v = random_isometry(d_in, d_out * n_outcomes * kraus_per_outcome, rng)
    blocks = v.reshape(n_outcomes, kraus_per_outcome, d_out, d_in)
    return Instrument(tuple((str(mu), KrausChannel(block)) for mu, block in enumerate(blocks)),
                      tol)


def steered_ensemble(psi: BipartiteState, alice: Povm,
                     tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Bob's conditional ensemble when Alice measures her (first) factor of psi."""
    d_a = psi.dims[0]
    if alice.dim != d_a:
        raise ValueError(f"POVM dimension {alice.dim} != first factor dimension {d_a}")
    branches = [branch(psi.steered(eff.mat), tol) for eff in alice.effects]
    members = [(w, s) for w, s in branches if s is not None]
    total = sum(w for w, _ in members)
    return Ensemble(tuple((w / total, s) for w, s in members), tol)


def nonlinear_square_map(rho: DensityOperator) -> DensityOperator:
    """Purity-sharpening black box rho -> rho^2 / tr(rho^2).

    Pure states are fixed points; only ensembles containing mixed members can
    expose it, which is why the witness hunt steers with coarse POVMs.
    """
    sq = rho.mat @ rho.mat
    return DensityOperator(sq / float(sq.trace().real), rho.tol)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoSignalingReport:
    residual: float
    passed: bool


def check_no_signaling(state: BipartiteState, alice: Instrument,
                       tol: Tolerances = DEFAULT_TOL) -> NoSignalingReport:
    """Second factor's marginal before vs after an instrument on the first,
    compared in trace norm."""
    d_a, d_b = state.dims
    if alice.d_in != d_a:
        raise ValueError(f"instrument input {alice.d_in} != first factor dimension {d_a}")
    rho = state.state.mat
    before = matkit.partial_trace(rho, state.dims, keep=1)
    # Bob's marginal after the instrument, summed over outcomes:
    #   after[b, c] = sum_k sum_{a,x,y} K_k[a, x] rho[(x, b), (y, c)] conj(K_k[a, y]),
    # i.e. tr_A of (K_k (x) I) rho (K_k (x) I)† over every Kraus operator of every outcome.
    ops = np.concatenate([ch.kraus for _, ch in alice.outcomes])
    after = np.einsum("kax,xbyc,kay->bc", ops, rho.reshape(d_a, d_b, d_a, d_b), ops.conj())
    residual = matkit.trace_norm(after - before)
    # The gate allows the completeness defect X = sum K†K - I the instrument was built
    # with: with no signaling the marginal moves by tr_1((X (x) I) rho), and for a state
    # ||tr_1((X (x) I) rho)||_1 <= ||(X (x) I) rho||_1 <= ||X||_2 ||rho||_1 = ||X||_2.
    defect = tol.completeness_residual(np.einsum("kax,kay->xy", ops.conj(), ops))
    return NoSignalingReport(residual=residual, passed=residual <= tol.eps + defect)


def joint_distribution(e: Ensemble, program) -> dict[tuple[str, ...], float]:
    """Outcome-sequence distribution under a program, by branch enumeration.

    Program steps are instruments (which branch) or bare state-to-state
    callables (which transform each branch in place).  Members propagate
    individually and are mixed with their weights; branches below the
    probability floor are dropped.
    """
    dist: dict[tuple[str, ...], float] = {}
    for weight, member in e.members:
        branches = [(1.0, member, ())]
        for step in program:
            nxt = []
            if isinstance(step, Instrument):
                for prob, state, trail in branches:
                    for res in apply_instrument(step, state):
                        if res.state is None:
                            continue
                        nxt.append((prob * res.probability, res.state, trail + (res.label,)))
            else:
                nxt = [(prob, step(state), trail) for prob, state, trail in branches]
            branches = nxt
        for prob, _, trail in branches:
            dist[trail] = dist.get(trail, 0.0) + weight * prob
    return dist


@dataclass(frozen=True)
class EnsembleEquivalenceReport:
    max_difference: float
    witness: dict | None
    passed: bool


def check_ensemble_equivalence(e1: Ensemble, e2: Ensemble, program,
                               tol: Tolerances = DEFAULT_TOL) -> EnsembleEquivalenceReport:
    """Compare outcome statistics of two ensembles with the same average state.

    A statistics gap above eps / 10 plus the trace-norm distance of the two
    averages is returned as a signaling witness.
    """
    mix_diff = mix(e1).mat - mix(e2).mat
    gap = float(np.abs(mix_diff).max())
    if gap > tol.eps:
        raise MixMismatchError(f"ensembles average to different states (gap {gap:.3e})")
    # A program of instruments gives each outcome sequence the probability tr(rho G)
    # for one effect 0 <= G <= I, so averages rho_1, rho_2 that the check above let
    # through can differ in it by |p_1 - p_2| <= ||rho_1 - rho_2||_1 with no signaling.
    threshold = tol.eps / 10 + matkit.trace_norm(mix_diff)
    d1 = joint_distribution(e1, program)
    d2 = joint_distribution(e2, program)
    max_diff = 0.0
    witness = None
    for key in sorted(set(d1) | set(d2)):
        diff = abs(d1.get(key, 0.0) - d2.get(key, 0.0))
        if diff > max_diff:
            max_diff = diff
            if diff > threshold:
                witness = {"outcomes": list(key),
                           "p_first": d1.get(key, 0.0),
                           "p_second": d2.get(key, 0.0)}
    return EnsembleEquivalenceReport(max_difference=max_diff, witness=witness,
                                     passed=witness is None)


def basis_povm(d: int, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """Projective POVM onto the computational basis."""
    eye = np.eye(d, dtype=complex)
    return Povm.from_effects([np.outer(eye[:, k], eye[:, k].conj()) for k in range(d)],
                             tol=tol)


def eigen_ensemble(rho: DensityOperator) -> Ensemble:
    """Spectral decomposition of a state as an ensemble of its eigenvectors."""
    w, v = matkit.eigh_desc(rho.mat, rho.tol)
    members = [(float(w[k]), DensityOperator.from_vector(v[:, k], rho.tol))
               for k in range(rho.dim) if w[k] > P_FLOOR]
    total = sum(wt for wt, _ in members)
    return Ensemble(tuple((wt / total, s) for wt, s in members), rho.tol)


# ---------------------------------------------------------------------------
# Fixed demonstration scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelatedEnvReport:
    """Identical marginals, different correlations, different futures."""

    initial_system: np.ndarray
    initial_environment: np.ndarray
    post_system_first: np.ndarray
    post_system_second: np.ndarray
    initial_residual: float
    distinguishability: float
    note: str


def correlated_env_demo() -> CorrelatedEnvReport:
    """System+environment evolution that is not a function of the system state.

    Both joint states psi1 = (|10> + |01>)/sqrt(2) and psi2 = (|10> - |01>)/sqrt(2)
    (system factor first) have system and environment marginals I/2.  The
    interaction U is pinned by U|psi1> = |1,0> and U|psi2> = |0,0> and completed
    unitarily by U|00> = |01>, U|11> = |11>; the two branches then end in the
    distinct system states |1><1| and |0><0|.
    """
    s = 1.0 / np.sqrt(2.0)
    psi1 = np.array([0.0, s, s, 0.0], dtype=complex)
    psi2 = np.array([0.0, -s, s, 0.0], dtype=complex)
    u = np.zeros((4, 4), dtype=complex)
    u[:, 0] = [0.0, 1.0, 0.0, 0.0]   # |00> -> |01>
    u[:, 1] = [-s, 0.0, s, 0.0]      # |01> -> (|10> - |00>)/sqrt(2)
    u[:, 2] = [s, 0.0, s, 0.0]       # |10> -> (|10> + |00>)/sqrt(2)
    u[:, 3] = [0.0, 0.0, 0.0, 1.0]   # |11> -> |11>

    def reduced(ket: np.ndarray, keep: int) -> np.ndarray:
        return matkit.partial_trace(np.outer(ket, ket.conj()), (2, 2), keep)

    half = np.eye(2) / 2.0
    initial_residual = max(
        float(np.abs(reduced(psi, factor) - half).max())
        for psi in (psi1, psi2) for factor in (0, 1))
    post_first = reduced(u @ psi1, 0)
    post_second = reduced(u @ psi2, 0)
    note = ("The interaction is pinned by its defining action U|psi1> = |1,0> and "
            "U|psi2> = |0,0>, so the psi1 branch ends in |1><1| and the psi2 branch "
            "in |0><0|.  Narrative accounts that pair psi1 with |0><0| use the "
            "opposite assignment and are not followed here.")
    return CorrelatedEnvReport(
        initial_system=matkit.freeze(reduced(psi1, 0)),
        initial_environment=matkit.freeze(reduced(psi1, 1)),
        post_system_first=matkit.freeze(post_first),
        post_system_second=matkit.freeze(post_second),
        initial_residual=initial_residual,
        distinguishability=matkit.trace_norm(post_first - post_second),
        note=note)


def stern_gerlach_demo(tol: Tolerances = DEFAULT_TOL) -> Instrument:
    """Sharp spin-z measurement whose beams pick up relative phases 0.4 and -0.7.

    Each outcome map is a single Kraus operator (unitary after projection),
    the simplest case of an ideal measurement followed by outcome-dependent
    evolution; the phases cancel in every post-measurement density operator.
    """
    p_up = np.diag([1.0, 0.0]).astype(complex)
    p_down = np.diag([0.0, 1.0]).astype(complex)
    u_up = np.diag([1.0, np.exp(0.4j)])
    u_down = np.diag([np.exp(-0.7j), 1.0])
    return from_effect_channel_pairs(
        [(p_up, unitary_channel(u_up, tol)), (p_down, unitary_channel(u_down, tol))],
        labels=("+z", "-z"), tol=tol)


def atom_demo(tol: Tolerances = DEFAULT_TOL) -> Instrument:
    """Three-level ground-vs-excited measurement that resets excited states.

    Outcome "1" fires on the two-dimensional excited subspace and leaves the
    atom in the ground state whatever the input; being a two-Kraus map, no
    single-operator update M rho M† reproduces it.
    """
    eye = np.eye(3, dtype=complex)
    g, e1, e2 = eye[:, 0], eye[:, 1], eye[:, 2]
    b_ground = KrausChannel((np.outer(g, g.conj()),))
    b_excited = KrausChannel((np.outer(g, e1.conj()), np.outer(g, e2.conj())))
    return Instrument((("0", b_ground), ("1", b_excited)), tol)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    suite: str
    trials: int
    seed: int
    max_residual: float
    witnesses: list
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _run_trials(suite: str, trials: int, seed: int, details: dict, trial) -> SuiteReport:
    """Run `trial(i, rng)` for i < trials, rng seeded with seed + i.

    A trial returns its residual and, when it fails, the fields of its
    witness, which is recorded after the trial index and seed.  A ValueError
    raised in a trial propagates with the suite, trial and seed before its text."""
    max_res = 0.0
    witnesses = []
    for i in range(trials):
        try:
            residual, fields = trial(i, np.random.default_rng(seed + i))
        except ValueError as exc:
            exc.args = (f"suite {suite} trial {i} (seed {seed + i}): {exc}",)
            raise
        max_res = max(max_res, residual)
        if fields is not None:
            witnesses.append({"trial": i, "seed": seed + i, **fields})
    return SuiteReport(suite, trials, seed, max_res, witnesses, passed=not witnesses,
                       details=details)


def run_nosignal_suite(trials: int = 200, seed: int = 42, dims=(2, 3),
                       tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Random bipartite states against random local instruments."""
    def trial(i, rng):
        d_a = int(rng.choice(dims))
        d_b = int(rng.choice(dims))
        state = BipartiteState((d_a, d_b), random_density(d_a * d_b, rng, tol=tol))
        inst = random_instrument(d_a, int(rng.integers(2, 4)),
                                 int(rng.integers(1, 3)), rng, tol)
        rep = check_no_signaling(state, inst, tol)
        return rep.residual, None if rep.passed else {"residual": rep.residual}

    return _run_trials("nosignal", trials, seed, {"dims": list(dims)}, trial)


def run_linearity_suite(trials: int = 100, seed: int = 7, dims=(2, 3),
                        nonlinear=None, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Steered decompositions of one state must produce identical statistics.

    When `nonlinear` is a state callback it runs before the measurement; any
    statistics gap it opens is collected as a witness (trial 0 then uses the
    deterministic coarse-vs-eigen pair so the gap cannot hide).
    """
    def trial(i, rng):
        d = int(rng.choice(dims))
        rho = random_density(d, rng, tol=tol)
        psi = purify(rho)
        if nonlinear is not None and i == 0:
            e1 = Ensemble(((1.0, rho),), tol)
            e2 = eigen_ensemble(rho)
            program = [nonlinear, luders_from_povm(basis_povm(d, tol))]
        else:
            e1 = steered_ensemble(psi, random_povm(d, 2, rng, tol), tol)
            e2 = steered_ensemble(psi, random_povm(d, 2, rng, tol), tol)
            steps = [] if nonlinear is None else [nonlinear]
            program = steps + [random_instrument(d, 2, 1, rng, tol)]
        rep = check_ensemble_equivalence(e1, e2, program, tol=tol)
        return rep.max_difference, rep.witness

    return _run_trials("linearity", trials, seed,
                       {"dims": list(dims), "nonlinear": nonlinear is not None}, trial)


def run_lemma_suite(trials: int = 200, seed: int = 5, dims=(2, 3, 4, 5),
                    tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Random (channel, effect) pairs: reconstruct the conditional evolution
    and collect reconstruction, trace-preservation, and vanishing-term residuals.
    A trial whose decomposition fails its own gates is a witness carrying the error."""
    details = {"dims": list(dims), "max_vanishing": 0.0}

    def trial(i, rng):
        d = int(rng.choice(dims))
        f = random_effect(d, rng, zero_eigenvalues=int(rng.integers(0, d)), tol=tol)
        e0 = random_cptp(d, d, int(rng.integers(1, d + 1)), rng)
        b = KrausChannel(e0.kraus @ f.root)
        try:
            rec = decompose(b, f)
        except ArithmeticError as exc:  # a failed trace or reconstruction gate
            return 0.0, {"dim": d, "error": str(exc)}
        recon, tp_res = rec.reconstruction_residual, rec.completeness_residual
        vanish = max(rec.premise.kernel_residual, rec.premise.cross_residual)
        details["max_vanishing"] = max(details["max_vanishing"], vanish)
        failed = recon > tol.eps or tp_res > tol.eps or vanish > tol.eps / 10
        return max(recon, tp_res), {"dim": d, "reconstruction": recon,
                                    "trace_preservation": tp_res,
                                    "vanishing": vanish} if failed else None

    return _run_trials("lemma", trials, seed, details, trial)
