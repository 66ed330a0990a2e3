"""Spans around the calls into each qmeasure module, recorded from outside.

`Tracer.install` replaces the public functions of every module (and the
`numpy.linalg` routines beneath them) with wrappers, and rebinds every alias a
module made with `from ... import`, so no call slips past under another name.
Dataclass constructors are timed through `__post_init__`.  A wrapper only
records while `Tracer.active` is set, so checks run between ops stay out of
the spans.  Spans (name, start, end, parent, op) are kept in flat arrays and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Public functions and classes wrapped, per module.  The harness's random_*
# generators stay unwrapped on purpose: their time is the suites' own work
# (random generation and loop glue).  Only cli.main is wrapped, so its self
# time holds argparse, the command glue and the JSON dump.
TRACED = {
    "matkit": ("eigh_desc", "tensor_product", "partial_trace", "psd_sqrt",
               "psd_support", "polar_decompose"),
    "states": ("DensityOperator", "Ensemble", "BipartiteState", "mix", "purify",
               "pure_ket", "steering_povm"),
    "channels": ("KrausChannel", "Superoperator", "ChoiMatrix", "apply_map",
                 "superop_from_map", "choi_from_map", "kraus_from_choi", "compose",
                 "adjoint", "pullback_povm", "identity_channel", "unitary_channel",
                 "transpose_superoperator", "completely_depolarizing"),
    "measure": ("Effect", "Povm", "Instrument", "probabilities", "induced_povm",
                "luders_from_povm", "from_generalized", "from_effect_channel_pairs",
                "apply_instrument", "fuse_sequential"),
    "decomposition": ("verify_premise", "decompose", "kraus_rank",
                      "reconstruction_residual"),
    "serialize": ("to_payload", "matrix_payload", "to_text", "write_file",
                  "parse_text", "build", "from_text", "read_file"),
    "cli": ("main",),
    "harness": ("run_nosignal_suite", "run_linearity_suite", "run_lemma_suite",
                "check_no_signaling", "check_ensemble_equivalence"),
}
NUMPY_LINALG = ("eigh", "eigvalsh", "svd")

SUITES = ("harness.run_nosignal_suite", "harness.run_linearity_suite",
          "harness.run_lemma_suite")
EIG = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")


def _count_kraus(args, kwargs, result):
    return "channels.apply_map.kraus_ops", len(getattr(args[0], "kraus", ()))


def _count_output_kraus(args, kwargs, result):
    return "decomposition.output_kraus", len(result.kraus)


def _count_bytes_in(args, kwargs, result):
    return "serialize.bytes_in", len(args[0].encode("utf-8"))


COUNTERS = {
    "channels.apply_map": _count_kraus,
    "decomposition.decompose": _count_output_kraus,
    "serialize.parse_text": _count_bytes_in,
}


def _tag(args) -> str:
    """Form, dimension and Kraus count of the first argument, for per-call figures."""
    if not args:
        return ""
    first = args[0]
    shape = getattr(first, "shape", None)
    if shape:
        return f"ndarray/{shape[0]}"
    d_in = getattr(first, "d_in", None)
    if not isinstance(d_in, int):
        return type(first).__name__
    kraus = getattr(first, "kraus", None)
    count = f"x{len(kraus)}" if kraus is not None else ""
    return f"{type(first).__name__}/{d_in}{count}"


class Tracer:
    def __init__(self):
        self.active = False
        self.op = 0
        self.names: list[str] = []
        self.tags: list[str] = []
        self._ids: dict[str, int] = {}
        self._tag_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.tag_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def _intern(self, table: dict, values: list, key: str) -> int:
        if key not in table:
            table[key] = len(values)
            values.append(key)
        return table[key]

    def wrap(self, name: str, fn, tagged: bool = True):
        name_id = self._intern(self._ids, self.names, name)
        counter = COUNTERS.get(name)
        no_tag = self._intern(self._tag_ids, self.tags, "")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(name_id)
            self.tag_id.append(self._intern(self._tag_ids, self.tags, _tag(args))
                               if tagged else no_tag)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                key, n = counter(args, kwargs, result)
                self.counts[key] += n
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced callable and rebind each alias of it in qmeasure."""
        wrapped = {}
        for short, names in TRACED.items():
            module = importlib.import_module(f"qmeasure.{short}")
            for attr in names:
                obj = getattr(module, attr)
                if isinstance(obj, type):
                    self._patch(obj, "__post_init__",
                                self.wrap(f"{short}.{attr}", obj.__post_init__, tagged=False))
                else:
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qmeasure" and not mod_name.startswith("qmeasure."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for attr in NUMPY_LINALG:
            self._patch(np.linalg, attr,
                        self.wrap(f"numpy.linalg.{attr}", getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def arrays(self) -> dict:
        """Spans as numpy arrays, with self time (duration minus direct children)."""
        start = np.frombuffer(self.start, dtype=np.float64) if self.start else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if self.end else np.zeros(0)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return {"name": np.array(self.name_id, dtype=np.int64),
                "tag": np.array(self.tag_id, dtype=np.int64),
                "op": np.array(self.op_id, dtype=np.int64),
                "parent": parent, "start": start, "end": end,
                "duration": dur, "self": dur - covered}

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and how often each parent called it."""
        spans = self.arrays()
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {},
                      "per_tag": {}}
               for name in self.names}
        for idx, name in enumerate(self.names):
            mask = spans["name"] == idx
            if not mask.any():
                continue
            entry = out[name]
            entry["calls"] = int(mask.sum())
            entry["total_s"] = float(spans["duration"][mask].sum())
            entry["self_s"] = float(spans["self"][mask].sum())
            parents = spans["parent"][mask]
            parent_names = np.where(parents >= 0, spans["name"][np.maximum(parents, 0)], -1)
            for pid, n in zip(*np.unique(parent_names, return_counts=True)):
                entry["parents"][self.names[pid] if pid >= 0 else ""] = int(n)
            for tid in np.unique(spans["tag"][mask]):
                sel = mask & (spans["tag"] == tid)
                entry["per_tag"][self.tags[tid]] = {
                    "calls": int(sel.sum()),
                    "total_ms_per_call": float(spans["duration"][sel].mean() * 1e3),
                    "self_ms_per_call": float(spans["self"][sel].mean() * 1e3)}
        return out

    def save(self, path) -> None:
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), tags=np.array(self.tags),
                            **{k: spans[k] for k in ("name", "tag", "op", "parent",
                                                     "start", "end")})


# Per-layer metrics of a traced run: (name, unit, better, how, spans).
# how: calls / self_ms / total_ms count spans of the listed names per op,
# "self_ms_per_call" divides their self time by their calls instead (a suite
# runner is called once per trial), "nested" counts spans[0] called directly
# from spans[1], "counter" reads a count recorded at a span boundary or by the
# workload from an op's output.
PER_LAYER = [
    ("matkit.eigh_desc.calls_per_op", "count", "lower", "calls", ("matkit.eigh_desc",)),
    ("matkit.eigh_desc.self_ms_per_op", "ms", "lower", "self_ms", ("matkit.eigh_desc",)),
    ("matkit.psd_sqrt.calls_per_op", "count", "lower", "calls", ("matkit.psd_sqrt",)),
    ("matkit.psd_support.calls_per_op", "count", "lower", "calls", ("matkit.psd_support",)),
    ("matkit.psd_support.self_ms_per_op", "ms", "lower", "self_ms", ("matkit.psd_support",)),
    ("numpy.linalg.eig.calls_per_op", "count", "lower", "calls", EIG),
    ("numpy.linalg.eig.ms_per_op", "ms", "lower", "total_ms", EIG),
    ("numpy.linalg.svd.calls_per_op", "count", "lower", "calls", ("numpy.linalg.svd",)),
    ("numpy.linalg.svd.ms_per_op", "ms", "lower", "total_ms", ("numpy.linalg.svd",)),
    ("states.DensityOperator.calls_per_op", "count", "lower", "calls",
     ("states.DensityOperator",)),
    ("states.DensityOperator.self_ms_per_op", "ms", "lower", "self_ms",
     ("states.DensityOperator",)),
    ("states.purify.self_ms_per_op", "ms", "lower", "self_ms", ("states.purify",)),
    ("channels.apply_map.calls_per_op", "count", "lower", "calls", ("channels.apply_map",)),
    ("channels.apply_map.self_ms_per_op", "ms", "lower", "self_ms", ("channels.apply_map",)),
    ("channels.apply_map.kraus_ops_per_op", "count", "lower", "counter",
     ("channels.apply_map.kraus_ops",)),
    ("channels.choi_from_map.self_ms_per_op", "ms", "lower", "self_ms",
     ("channels.choi_from_map",)),
    ("measure.Effect.calls_per_op", "count", "lower", "calls", ("measure.Effect",)),
    ("measure.Effect.self_ms_per_op", "ms", "lower", "self_ms", ("measure.Effect",)),
    ("measure.Instrument.self_ms_per_op", "ms", "lower", "self_ms", ("measure.Instrument",)),
    ("measure.apply_instrument.self_ms_per_op", "ms", "lower", "self_ms",
     ("measure.apply_instrument",)),
    ("measure.induced_povm.self_ms_per_op", "ms", "lower", "self_ms",
     ("measure.induced_povm",)),
    ("decomposition.verify_premise.calls_per_op", "count", "lower", "calls",
     ("decomposition.verify_premise",)),
    ("decomposition.verify_premise.self_ms_per_op", "ms", "lower", "self_ms",
     ("decomposition.verify_premise",)),
    ("decomposition.verify_premise.nested_calls_per_op", "count", "lower", "nested",
     ("decomposition.verify_premise", "decomposition.decompose")),
    ("decomposition.decompose.self_ms_per_op", "ms", "lower", "self_ms",
     ("decomposition.decompose",)),
    ("decomposition.reconstruction_residual.calls_per_op", "count", "lower", "calls",
     ("decomposition.reconstruction_residual",)),
    ("decomposition.reconstruction_residual.self_ms_per_op", "ms", "lower", "self_ms",
     ("decomposition.reconstruction_residual",)),
    ("decomposition.kraus_rank.self_ms_per_op", "ms", "lower", "self_ms",
     ("decomposition.kraus_rank",)),
    ("decomposition.output_kraus_count", "count", "lower", "counter",
     ("decomposition.output_kraus",)),
    ("serialize.parse_text.self_ms_per_op", "ms", "lower", "self_ms", ("serialize.parse_text",)),
    ("serialize.build.self_ms_per_op", "ms", "lower", "self_ms", ("serialize.build",)),
    ("serialize.matrix_payload.self_ms_per_op", "ms", "lower", "self_ms",
     ("serialize.matrix_payload",)),
    ("serialize.bytes_in_per_op", "B", "lower", "counter", ("serialize.bytes_in",)),
    ("cli.main.self_ms_per_op", "ms", "lower", "self_ms", ("cli.main",)),
    ("cli.stdout_bytes_per_op", "B", "lower", "counter", ("cli.stdout_bytes",)),
    ("harness.suite.self_ms_per_trial", "ms", "lower", "self_ms_per_call", SUITES),
    ("harness.check_no_signaling.self_ms_per_op", "ms", "lower", "self_ms",
     ("harness.check_no_signaling",)),
    ("harness.check_ensemble_equivalence.self_ms_per_op", "ms", "lower", "self_ms",
     ("harness.check_ensemble_equivalence",)),
]


def layer_metrics(summary: dict, counts: Counter, ops: int) -> dict[str, float]:
    """Per-op values of every PER_LAYER metric from a span summary and counters."""
    values = {}
    for name, _, _, how, spans in PER_LAYER:
        if how == "calls":
            total = sum(summary.get(s, {}).get("calls", 0) for s in spans)
        elif how == "self_ms":
            total = 1e3 * sum(summary.get(s, {}).get("self_s", 0.0) for s in spans)
        elif how == "total_ms":
            total = 1e3 * sum(summary.get(s, {}).get("total_s", 0.0) for s in spans)
        elif how == "self_ms_per_call":
            calls = sum(summary.get(s, {}).get("calls", 0) for s in spans)
            self_s = sum(summary.get(s, {}).get("self_s", 0.0) for s in spans)
            values[name] = 1e3 * self_s / calls if calls else 0.0
            continue
        elif how == "nested":
            total = summary.get(spans[0], {}).get("parents", {}).get(spans[1], 0)
        else:
            total = counts.get(spans[0], 0)
        values[name] = total / ops
    return values
