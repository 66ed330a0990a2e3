"""Seeded inputs built with numpy alone.

Nothing here imports qmeasure, so a change to the library's random
generators or to its writer cannot change what the benchmark feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _gaussian(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the R phases removed."""
    q, r = np.linalg.qr(_gaussian(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def stinespring_blocks(d: int, count: int, rng) -> list[np.ndarray]:
    """Kraus operators of a random CPTP map: the d x d blocks of a (count*d) x d isometry."""
    q, r = np.linalg.qr(_gaussian(rng, count * d, d))
    v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
    return [v[k * d:(k + 1) * d, :] for k in range(count)]


def wishart_density(d: int, rng) -> np.ndarray:
    g = _gaussian(rng, d, d)
    m = g @ g.conj().T
    return m / np.trace(m).real


@dataclass(frozen=True)
class PlantedInstrument:
    """Two-outcome instrument whose outcome "0" effect F has an exact kernel.

    Outcome k carries the operators A_i sqrt(F_k) with F_0 = F, F_1 = I - F
    and {A_i} a Stinespring channel, so the effects sum to the identity.
    """

    outcomes: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
    effect: np.ndarray
    effect_root: np.ndarray
    kernel_dim: int


def planted_instrument(d: int, kernel_dim: int, kraus_per_outcome: int, rng) -> PlantedInstrument:
    u = haar_unitary(d, rng)
    lam = rng.uniform(0.1, 0.9, size=d)
    lam[:kernel_dim] = 0.0
    root0 = (u * np.sqrt(lam)) @ u.conj().T
    root1 = (u * np.sqrt(1.0 - lam)) @ u.conj().T
    first = tuple(a @ root0 for a in stinespring_blocks(d, kraus_per_outcome, rng))
    second = tuple(a @ root1 for a in stinespring_blocks(d, kraus_per_outcome, rng))
    return PlantedInstrument((first, second), (u * lam) @ u.conj().T, root0, kernel_dim)


def _number(x: float) -> str:
    return f"{float(x):.17g}"


def _matrix_text(m: np.ndarray) -> str:
    rows = ("[" + ",".join(f"[{_number(z.real)},{_number(z.imag)}]" for z in row) + "]"
            for row in m)
    return "[" + ",".join(rows) + "]"


def instrument_text(outcomes) -> str:
    """An instrument file in the documented JSON format (17 significant digits),
    with outcomes labelled "0", "1", ..."""
    d_out, d_in = outcomes[0][0].shape
    entries = ",".join(
        '{"label":"%d","kraus":[%s]}' % (label, ",".join(_matrix_text(k) for k in ops))
        for label, ops in enumerate(outcomes))
    return ('{"kind":"instrument","dims":[%d,%d],"data":{"outcomes":[%s]}}\n'
            % (d_in, d_out, entries))


def write_instrument(path: Path, outcomes) -> int:
    """Write an instrument file; returns its size in bytes."""
    data = instrument_text(outcomes).encode("utf-8")
    path.write_bytes(data)
    return len(data)
