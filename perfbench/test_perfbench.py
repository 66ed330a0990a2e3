"""Quick checks of the benchmark's own parts; no test here runs a workload loop."""

import json
from pathlib import Path

import numpy as np

from qmeasure import cli, decomposition, harness, measure, serialize
from qmeasure.channels import KrausChannel

from perfbench import inputs, run, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            == run.END_TO_END)
    layers = [(name, unit, better) for name, unit, better, _, _ in tracer.PER_LAYER]
    layers.append(("trace.overhead_ratio", "1", "lower"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers


def test_every_span_a_metric_names_fires_on_some_workload():
    required = {s for w in workloads.WORKLOADS.values() for s in w.required_spans}
    named = {s for _, _, _, how, spans in tracer.PER_LAYER if how != "counter" for s in spans}
    assert named <= required


def test_writer_output_reads_back_as_the_generated_instrument(tmp_path):
    rng = np.random.default_rng(3)
    planted = inputs.planted_instrument(8, 2, 3, rng)
    path = tmp_path / "inst.json"
    size = inputs.write_instrument(path, planted.outcomes)
    assert size == path.stat().st_size
    inst = serialize.read_file(path)
    for (_, ch), ops in zip(inst.outcomes, planted.outcomes):
        assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, ops))
    effect = measure.induced_povm(inst).effect("0").mat
    assert np.max(np.abs(effect - planted.effect)) < 1e-12
    assert np.sum(np.linalg.eigvalsh(effect) < 1e-9) == 2
    assert serialize.to_text(inst) == path.read_text()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    lat = [i / 1000 for i in range(1, 101)]
    t = run.tail(lat)
    assert (t["value_ms"], t["percentile"], t["beyond"]) == (90.0, 90.0, 10)
    assert run.tail(lat[:5])["value_ms"] == 5.0


def test_suite_ops_use_consecutive_seeds_per_suite():
    w = workloads.WORKLOADS["suite-small"]
    state = w.setup(2, ROOT)
    trials = [t for k in range(2) for t in w.trials(state, k)]
    assert [kind for kind, _ in trials[:5]] == ["nosignal"] * 2 + ["linearity"] + ["lemma"] * 2
    assert [seed for kind, seed in trials if kind == "lemma"] == [200_000 + i for i in range(4)]
    assert [seed for kind, seed in trials if kind == "nosignal"] == [200_000 + i for i in range(4)]
    assert [seed for kind, seed in trials if kind == "linearity"] == [200_000, 200_001]
    whole = harness.run_nosignal_suite(trials=2, seed=200_000)
    singles = [harness.run_nosignal_suite(trials=1, seed=200_000 + i) for i in range(2)]
    assert whole.max_residual == max(r.max_residual for r in singles)


def test_tracer_rebinds_aliases_nests_spans_and_restores():
    originals = (harness.decompose, measure.apply_map, cli.choi_from_map, np.linalg.eigh)
    planted = inputs.planted_instrument(3, 1, 2, np.random.default_rng(5))
    b = KrausChannel.from_ops(planted.outcomes[0])
    f = measure.Effect(planted.effect)
    t = tracer.Tracer()
    t.install()
    try:
        assert harness.decompose is not originals[0]
        assert measure.apply_map is not originals[1]
        assert cli.choi_from_map is not originals[2]
        t.active = True
        decomposition.decompose(b, f)
        t.active = False
        decomposition.decompose(b, f)
    finally:
        t.uninstall()
    assert (harness.decompose, measure.apply_map, cli.choi_from_map,
            np.linalg.eigh) == originals
    summary = t.summary()
    assert summary["decomposition.decompose"]["calls"] == 1
    assert summary["decomposition.verify_premise"]["parents"] == {"decomposition.decompose": 1}
    assert summary["channels.apply_map"]["calls"] > 0
    spans = t.arrays()
    assert np.all(spans["self"] >= -1e-9)
    assert abs(spans["self"].sum() - spans["duration"][spans["parent"] < 0].sum()) < 1e-6
    assert t.counts["decomposition.output_kraus"] == 2 + 3


def test_decompose_op_passes_its_check_and_a_tampered_output_fails(tmp_path):
    w = workloads.WORKLOADS["decompose-d32"]
    state = w.setup(1, tmp_path)
    code, text = w.op(state, 0)
    assert w.check(state, 0, (code, text)) == []
    doc = json.loads(text)
    doc["conditional_kraus"][0] = [[[2 * re, 2 * im] for re, im in row]
                                   for row in doc["conditional_kraus"][0]]
    assert w.check(state, 0, (code, json.dumps(doc)))
    assert w.check(state, 0, (1, text))
