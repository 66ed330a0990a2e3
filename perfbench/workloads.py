"""The benchmark's workloads.  Each makes its inputs from the seed, runs one op
against qmeasure and checks the op's output.

Library functions are looked up through their modules at call time, so the
tracer's wrappers see every call the ops make.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qmeasure import cli, harness

from . import inputs

# The acceptance module's tolerance for reconstructions.
RECONSTRUCTION_TOL = 1e-9


def _trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _apply_kraus(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


class SuiteSmall:
    """One op is one cycle of property-suite trials, as `qmeasure suite all` runs them.

    A cycle is two no-signaling, one linearity and two lemma trials: the
    200:100:200 mix of `suite all`.  A single trial would be a poor op, since
    the three suites' trials differ several-fold in cost and a median over
    them lands in whichever band happens to hold the middle op.
    """

    name = "suite-small"
    PATTERN = ("nosignal", "nosignal", "linearity", "lemma", "lemma")
    RUNNERS = {"nosignal": "run_nosignal_suite", "linearity": "run_linearity_suite",
               "lemma": "run_lemma_suite"}
    trace_ops = 100  # 500 trials, 200:100:200, the default run of `suite all`
    required_spans = (
        "matkit.eigh_desc", "matkit.psd_sqrt", "matkit.psd_support",
        "numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.svd",
        "states.DensityOperator", "states.purify", "channels.apply_map",
        "measure.Effect", "measure.Instrument", "measure.apply_instrument",
        "decomposition.verify_premise", "decomposition.decompose",
        "decomposition.reconstruction_residual", "harness.run_nosignal_suite",
        "harness.run_linearity_suite", "harness.run_lemma_suite",
        "harness.check_no_signaling", "harness.check_ensemble_equivalence")

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"base": 100_000 * seed, "per_cycle": Counter(self.PATTERN)}

    def trials(self, state: dict, k: int) -> list[tuple[str, int]]:
        """Suite and seed of each trial of op k: a suite's n-th trial uses seed base + n."""
        first = {kind: per * k for kind, per in state["per_cycle"].items()}
        out = []
        for kind in self.PATTERN:
            out.append((kind, state["base"] + first[kind]))
            first[kind] += 1
        return out

    def op(self, state: dict, k: int):
        return [getattr(harness, self.RUNNERS[kind])(trials=1, seed=seed)
                for kind, seed in self.trials(state, k)]

    def check(self, state: dict, k: int, reports) -> list[str]:
        return [f"{r.suite} trial seed {r.seed} failed: {r.witnesses}"
                for r in reports if not (r.passed and not r.witnesses)]

    def digest(self, reports) -> str:
        return json.dumps([r.to_dict() for r in reports], sort_keys=True)

    def counts(self, reports) -> dict:
        return {}

    def facts(self, state: dict) -> dict:
        return {"base_seed": state["base"], "trials_per_op": list(self.PATTERN),
                "dims": {"nosignal": [2, 3], "linearity": [2, 3], "lemma": [2, 3, 4, 5]}}


@dataclass(frozen=True)
class _PoolEntry:
    path: str
    file_bytes: int
    instrument: inputs.PlantedInstrument


class DecomposeD32:
    """One op is `qmeasure decompose FILE 0`, in process, on a d=32 instrument."""

    name = "decompose-d32"
    D = 32
    KERNEL = D // 4
    KRAUS = 4
    POOL = 4
    EXPECTED_KRAUS = KRAUS + KERNEL * D
    CHECK_STATES = 2
    trace_ops = POOL
    required_spans = (
        "numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.svd",
        "channels.apply_map", "channels.choi_from_map", "decomposition.verify_premise",
        "decomposition.decompose", "decomposition.reconstruction_residual",
        "decomposition.kraus_rank", "measure.induced_povm", "serialize.parse_text",
        "serialize.build", "serialize.matrix_payload", "cli.main")

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        pool = []
        for i in range(self.POOL):
            inst = inputs.planted_instrument(self.D, self.KERNEL, self.KRAUS, rng)
            path = workdir / f"instrument-{i}.json"
            pool.append(_PoolEntry(str(path), inputs.write_instrument(path, inst.outcomes),
                                   inst))
        return {"seed": seed, "pool": pool}

    def op(self, state: dict, k: int):
        entry = state["pool"][k % self.POOL]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["decompose", entry.path, "0"])
        return code, out.getvalue()

    def check(self, state: dict, k: int, output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(text)
        problems = []
        if doc["kraus_rank"] != self.KRAUS:
            problems.append(f"kraus_rank {doc['kraus_rank']} != {self.KRAUS}")
        if doc["premise"]["support_rank"] != self.D - self.KERNEL:
            problems.append(f"support_rank {doc['premise']['support_rank']} "
                            f"!= {self.D - self.KERNEL}")
        raw = np.asarray(doc["conditional_kraus"], dtype=float)
        if raw.shape != (self.EXPECTED_KRAUS, self.D, self.D, 2):
            return problems + [f"conditional_kraus shape {raw.shape}"]
        e_ops = raw[..., 0] + 1j * raw[..., 1]
        inst = state["pool"][k % self.POOL].instrument
        b_ops = np.array(inst.outcomes[0])
        root = inst.effect_root
        rng = np.random.default_rng([state["seed"], k])
        bound = RECONSTRUCTION_TOL * self.D
        for _ in range(self.CHECK_STATES):
            rho = inputs.wishart_density(self.D, rng)
            gap = _trace_norm(_apply_kraus(b_ops, rho) - _apply_kraus(e_ops, root @ rho @ root))
            if gap > bound:
                problems.append(f"B(rho) != E(sqrt(F) rho sqrt(F)): gap {gap:.3e} > {bound:.1e}")
        return problems

    def digest(self, output) -> str:
        return _digest(*output)

    def counts(self, output) -> dict:
        return {"cli.stdout_bytes": len(output[1].encode("utf-8"))}

    def facts(self, state: dict) -> dict:
        return {"d": self.D, "kernel_dim": self.KERNEL, "kraus_per_outcome": self.KRAUS,
                "expected_output_kraus": self.EXPECTED_KRAUS, "pool_files": self.POOL,
                "file_bytes": [e.file_bytes for e in state["pool"]]}


WORKLOADS = {w.name: w for w in (SuiteSmall(), DecomposeD32())}
