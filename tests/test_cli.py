import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qmeasure
from qmeasure import cli, decomposition, harness, serialize
from qmeasure.channels import KrausChannel, superop_from_map, transpose_superoperator
from qmeasure.cli import build_parser, main
from qmeasure.matkit import Tolerances
from qmeasure.measure import (Instrument, Povm, fuse_sequential, induced_povm,
                              luders_from_povm)
from qmeasure.states import DensityOperator


def write(path, obj):
    serialize.write_file(path, obj)
    return str(path)


def z_povm():
    return Povm.from_effects([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def plus_state():
    return DensityOperator(np.full((2, 2), 0.5))


def last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def error_record(capsys, code):
    """The one JSON record of a failed command, after checking stderr has one line."""
    out = capsys.readouterr()
    (line,) = out.out.strip().splitlines()
    record = json.loads(line)
    assert set(record) == {"command", "ok", "exit_code", "error"}
    assert record["ok"] is False and record["exit_code"] == code
    assert len(out.err.strip().splitlines()) == 1 and "Traceback" not in out.err
    return record


# --- serialization ---------------------------------------------------------

@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda d: d[0] != d[1]),
       kraus_count=st.integers(1, 3))
def test_round_trip_is_byte_identical(seed, dims, kraus_count):
    d_in, d_out = dims
    assume(d_out * kraus_count >= d_in)  # else no such channel is trace preserving
    rng = np.random.default_rng(seed)
    channel = harness.random_cptp(d_in, d_out, kraus_count, rng)
    objects = {
        "density": harness.random_density(d_in, rng),
        "povm": harness.random_povm(d_in, kraus_count, rng),
        "kraus_channel": channel,
        "superoperator": superop_from_map(channel),
        "instrument": harness.random_instrument(d_in, 2, kraus_count, rng, d_out=d_out),
    }
    for kind, obj in objects.items():
        text1 = serialize.to_text(obj)
        assert serialize.parse_text(text1)["kind"] == kind
        text2 = serialize.to_text(serialize.from_text(text1))
        assert text1 == text2, f"{kind} did not round trip byte-identically"


def test_parse_rejects_garbage():
    with pytest.raises(serialize.ParseError):
        serialize.parse_text("{not json")
    with pytest.raises(serialize.ParseError):
        serialize.parse_text(json.dumps({"kind": "density", "dim": 2, "data": {}}))
    with pytest.raises(serialize.ParseError):
        serialize.parse_text(json.dumps({"kind": "wibble", "data": {}}))


# --- verify ----------------------------------------------------------------

def test_verify_valid_povm(tmp_path, capsys):
    path = write(tmp_path / "povm.json", z_povm())
    assert main(["verify", path]) == 0
    report = last_json(capsys)
    assert report["ok"] and report["kind"] == "povm"


@pytest.mark.parametrize("literal, reason", [
    pytest.param("NaN", "NaN", id="NaN"),
    pytest.param("Infinity", "Infinity", id="Infinity"),
    pytest.param("-Infinity", "-Infinity", id="-Infinity"),
    pytest.param("9" * 400, "not a finite float", id="400-digit-int"),  # float() overflows
    pytest.param("1e400", "not a finite float", id="1e400"),  # reads as inf
    pytest.param("9" * 5000, "Exceeds the limit", id="5000-digit-int"),  # int digit limit
])
def test_verify_rejects_non_standard_json_literals_as_parse_errors(literal, reason,
                                                                  tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text('{"kind": "density", "dim": 1, "data": {"mat": [[[%s, 0.0]]]}}' % literal)
    assert main(["verify", str(path)]) == 1
    error = error_record(capsys, 1)["error"]
    assert error.startswith(f"ParseError: {path}: ")
    assert reason in error


@pytest.mark.parametrize("bad", [["--tol", "nan"], ["--tol", "-1"], ["--rank-tol", "inf"]])
def test_tolerance_options_reject_bad_values_as_usage_errors(bad, tmp_path, capsys):
    path = write(tmp_path / "povm.json", z_povm())
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, *bad])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {bad[0]}:" in out.err
    assert "Traceback" not in out.err


def parsed_or_usage_error(argv):
    """The namespace `build_parser()` makes of `argv`, or the stderr text of
    the usage error (exit 2) it ends in."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return build_parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2
    assert "Traceback" not in err.getvalue()
    return err.getvalue()


def float_texts():
    """Float reprs, the edges of the two tolerance ranges among them, and junk."""
    edges = ["nan", "-nan", "inf", "-inf", "infinity", "0", "-0.0", "0e0", "-0e0", "5e-324",
             "-5e-324", "1e-320", "1e-400", "1e400", "-1e-9", "1e-9", " 1e-3 ", "1_0", "1,5",
             "0x10", "", " "]
    return st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                     st.sampled_from(edges), st.text(max_size=12))


@settings(deadline=None, max_examples=300)
@given(raw=float_texts(),
       option=st.sampled_from([("--tol", "eps"), ("--rank-tol", "rank_tol_factor")]))
@example(raw="-0e0", option=("--rank-tol", "rank_tol_factor"))
@example(raw="-1e-9", option=("--tol", "eps"))
@example(raw="--", option=("--tol", "eps"))
def test_a_tolerance_option_is_a_usage_error_exactly_when_tolerances_refuse_its_value(raw,
                                                                                     option):
    """As "--tol=VALUE" and as "--tol VALUE", which main's argv pass joins, so that
    a value such as "-0e0" or "-1e-9" is not read as an option.  A value of "--"
    is reported missing: argparse drops it from the option's value."""
    flag, field = option
    try:
        expected = float(raw)
        Tolerances(**{field: expected})
    except ValueError:
        expected = None
    error = (f"error: argument {flag}: expected one argument" if raw == "--" else
             f"error: argument {flag}: bad {flag} value {raw!r}: ")
    for argv in (["verify", "x.json", f"{flag}={raw}"], ["verify", "x.json", flag, raw],
                 ["decompose", "x.json", "-z", flag, raw]):
        parsed = parsed_or_usage_error(cli._argv_for_parser(argv))
        if expected is None:
            assert error in parsed
        else:
            assert repr(getattr(parsed, flag[2:].replace("-", "_"))) == repr(expected)


def dims_texts():
    entries = st.one_of(st.integers(-3, 12).map(str),
                        st.sampled_from(["", " ", " 3 ", "x", "2.0", "1e1", "+4", "0x3"]),
                        st.text(max_size=3))
    return st.one_of(st.lists(entries, max_size=5).map(",".join), st.text(max_size=8))


@settings(deadline=None, max_examples=300)
@given(raw=dims_texts())
def test_dims_take_each_entry_as_an_integer_of_at_least_2_through_one_rule(raw):
    entries = [part for part in raw.split(",") if part.strip()]
    expected, error = [], None
    for part in entries:
        try:
            value = int(part)
        except ValueError:
            error = f"bad --dims value {part!r}"
            break
        if value < 2:
            error = "--dims needs an integer >= 2"
            break
        expected.append(value)
    if not entries:
        error = "--dims needs integers >= 2"
    parsed = parsed_or_usage_error(["suite", "lemma", f"--dims={raw}"])
    if error is None:
        assert parsed.dims == tuple(expected)
    else:
        assert f"error: argument --dims: {error}\n" in parsed


def test_verify_incomplete_povm_exits_2(tmp_path, capsys):
    payload = serialize.to_payload(z_povm())
    for outcome in payload["data"]["outcomes"]:
        outcome["mat"] = outcome["mat"] * [0.9, 1.0]  # real parts scaled by 0.9
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(payload))
    assert main(["verify", str(path)]) == 2
    report = error_record(capsys, 2)
    assert "completeness residual" in report["error"]


def test_verify_rejects_povm_whose_spectral_residual_exceeds_the_bound(tmp_path, capsys):
    # Entrywise the residual c = 2.9e-9 is under eps * d = 3e-9, but its spectral
    # norm 2c is not, and |+++> would see probabilities summing to 1 + 2c.
    d, c = 3, 2.9e-9
    payload = serialize.to_payload(z_povm())
    payload["dim"] = d
    payload["data"]["outcomes"] = [
        {"label": "a", "mat": serialize.matrix_payload(
            np.eye(d) / 2 + c * (np.ones((d, d)) - np.eye(d)))},
        {"label": "b", "mat": serialize.matrix_payload(np.eye(d) / 2)}]
    povm = tmp_path / "povm.json"
    povm.write_text(serialize.dumps(payload))
    rho = write(tmp_path / "rho.json", DensityOperator.from_vector(np.ones(d)))
    assert main(["verify", str(povm)]) == 2
    assert "completeness residual" in error_record(capsys, 2)["error"]
    assert main(["probs", rho, str(povm)]) == 2
    assert "completeness residual" in error_record(capsys, 2)["error"]


def test_verify_deeply_nested_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["verify", str(path)]) == 1
    error = error_record(capsys, 1)["error"]
    assert error.startswith(f"ParseError: {path}: invalid JSON: ")
    assert "nested too deeply" in error


def test_verify_unparsable_exits_1(tmp_path, capsys):
    for name, content in (("broken.json", b"{"), ("latin1.json", b'{"kind": "\xe9"}')):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["verify", str(path)]) == 1
        assert str(path) in error_record(capsys, 1)["error"]


@pytest.mark.parametrize("content, error", [
    (b'{"kind": "\xe9"}', serialize.ParseError),  # Latin-1, not UTF-8
    (b"{", serialize.ParseError),
    (b'{"kind": "density", "dim": 1, "data": {"mat": [[[2.0, 0.0]]]}}', ValueError),  # trace 2
], ids=["latin1", "json", "invariant"])
def test_read_file_errors_name_the_path(tmp_path, content, error):
    path = tmp_path / "object.json"
    path.write_bytes(content)
    with pytest.raises(error, match="^" + re.escape(f"{path}: ")):
        serialize.read_file(path)


def test_verify_transpose_as_kraus_channel_exits_1(tmp_path, capsys):
    # a 4x4 superoperator matrix cannot be a Kraus operator of a qubit channel
    payload = {"kind": "kraus_channel", "dims": [2, 2],
               "data": {"kraus": [serialize.matrix_payload(
                   transpose_superoperator(2).mat)]}}
    path = tmp_path / "transpose_kraus.json"
    path.write_text(serialize.dumps(payload))
    assert main(["verify", str(path)]) == 1
    error_record(capsys, 1)


def test_verify_trace_increasing_kraus_channel_exits_2(tmp_path, capsys):
    path = write(tmp_path / "gain.json", KrausChannel.from_ops([2.0 * np.eye(2)]))
    assert main(["verify", path]) == 2
    assert "increases trace" in error_record(capsys, 2)["error"]


def test_verify_transpose_superoperator_flags_not_cp(tmp_path, capsys):
    path = write(tmp_path / "transpose.json", transpose_superoperator(2))
    assert main(["verify", path]) == 0
    report = last_json(capsys)
    assert report["ok"]
    assert report["flags"]["cp"] is False
    assert report["flags"]["trace_preserving"] is True
    assert report["flags"]["min_choi_eigenvalue"] <= -0.5


def test_verify_takes_the_choi_spectrum_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path / "transpose.json", transpose_superoperator(3))
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert main(["verify", path]) == 0
    flags = last_json(capsys)["flags"]
    assert flags["cp"] is False and flags["min_choi_eigenvalue"] <= -0.5
    assert shapes == [(9, 9)]



def test_verify_random_kraus_channel_flags_a_cptp_map(tmp_path, capsys):
    ch = harness.random_cptp(8, 8, 3, np.random.default_rng(1))
    assert main(["verify", write(tmp_path / "channel-d8.json", ch)]) == 0
    report = last_json(capsys)
    assert report["ok"] and report["kind"] == "kraus_channel"
    assert report["flags"] == {"cp": True, "trace_preserving": True, "trace_nonincreasing": True}


def test_verify_density(tmp_path):
    assert main(["verify", write(tmp_path / "rho.json", plus_state())]) == 0


def test_verify_instrument(tmp_path):
    inst = luders_from_povm(z_povm())
    assert main(["verify", write(tmp_path / "inst.json", inst)]) == 0


def test_instrument_with_an_effect_above_identity_fails_every_command(tmp_path, capsys):
    # The total misses I by 1.5e-9, inside eps * d = 2e-9, but outcome "0" alone has
    # K†K = (1 + 1.5e-9)|0><0|; verify must refuse what decompose and fuse refuse.
    payload = serialize.to_payload(luders_from_povm(z_povm()))
    payload["data"]["outcomes"][0]["kraus"] = [
        serialize.matrix_payload(np.diag([np.sqrt(1 + 1.5e-9), 0.0]))]
    path = tmp_path / "inst.json"
    path.write_text(serialize.dumps(payload))
    label = payload["data"]["outcomes"][0]["label"]
    for argv in (["verify", str(path)], ["decompose", str(path), label],
                 ["fuse", str(path), str(path), "--out", str(tmp_path / "out.json")]):
        assert main(argv) == 2
        error = error_record(capsys, 2)["error"]
        assert f"instrument outcome {label!r}: effect spectrum leaves [0, 1] by 1.500e-09" in error


# --- fuse ------------------------------------------------------------------

def test_fuse_files_match_library(tmp_path, capsys):
    rng = np.random.default_rng(5)
    first = harness.random_instrument(2, 2, 1, rng)
    second = harness.random_instrument(2, 2, 2, rng)
    f1 = write(tmp_path / "first.json", first)
    f2 = write(tmp_path / "second.json", second)
    out = tmp_path / "fused.json"
    assert main(["fuse", f1, f2, "--out", str(out)]) == 0
    report = last_json(capsys)
    fused_file = serialize.read_file(out)
    expected = fuse_sequential(first, second)
    assert fused_file.labels == expected.labels
    for (_, ch1), (_, ch2) in zip(fused_file.outcomes, expected.outcomes):
        for k1, k2 in zip(ch1.kraus, ch2.kraus):
            np.testing.assert_allclose(k1, k2, atol=1e-15)
    assert [e["label"] for e in report["effects"]] == list(expected.labels)


def test_fuse_trivial_second_keeps_first(tmp_path):
    first = luders_from_povm(z_povm())
    second = luders_from_povm(Povm.from_effects([np.eye(2)], labels=["t"]))
    f1 = write(tmp_path / "a.json", first)
    f2 = write(tmp_path / "b.json", second)
    out = tmp_path / "fused.json"
    assert main(["fuse", f1, f2, "--out", str(out)]) == 0
    fused = serialize.read_file(out)
    assert fused.labels == ("0·t", "1·t")


def test_fuse_z_then_x_probabilities_via_files(tmp_path):
    from qmeasure.measure import apply_instrument
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    x_povm = Povm.from_effects([np.outer(plus, plus), np.outer(minus, minus)],
                               labels=["+", "-"])
    f1 = write(tmp_path / "z.json", luders_from_povm(z_povm()))
    f2 = write(tmp_path / "x.json", luders_from_povm(x_povm))
    out = tmp_path / "zx.json"
    assert main(["fuse", f1, f2, "--out", str(out)]) == 0
    fused = serialize.read_file(out)
    ket0 = DensityOperator(np.diag([1.0, 0.0]))
    probs = {r.label: r.probability for r in apply_instrument(fused, ket0)}
    assert abs(probs["0·+"] - 0.5) < 1e-12
    assert abs(probs["0·-"] - 0.5) < 1e-12
    assert probs["1·+"] < 1e-12 and probs["1·-"] < 1e-12


def test_fuse_channel_then_measurement_matches_pullback(tmp_path, capsys):
    from qmeasure.channels import pullback_povm
    from qmeasure.measure import Instrument, induced_povm
    rng = np.random.default_rng(11)
    ch = harness.random_cptp(2, 2, 2, rng)
    evolution = Instrument((("e", ch),))
    second = harness.random_instrument(2, 2, 1, rng)
    f1 = write(tmp_path / "evo.json", evolution)
    f2 = write(tmp_path / "meas.json", second)
    out = tmp_path / "fused.json"
    assert main(["fuse", f1, f2, "--out", str(out)]) == 0
    report = last_json(capsys)
    pulled = pullback_povm(ch, induced_povm(second))
    got = {e["label"]: np.array([[complex(re, im) for re, im in row]
                                 for row in e["mat"]])
           for e in report["effects"]}
    for (label, eff) in pulled.outcomes:
        assert np.max(np.abs(got[f"e·{label}"] - eff.mat)) <= 1e-10


def test_fuse_dimension_mismatch_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(7)
    first = harness.random_instrument(2, 2, 1, rng)
    second = harness.random_instrument(3, 2, 1, rng)
    f1 = write(tmp_path / "a.json", first)
    f2 = write(tmp_path / "b.json", second)
    assert main(["fuse", f1, f2, "--out", str(tmp_path / "c.json")]) == 2
    assert "cannot chain" in error_record(capsys, 2)["error"]


def test_fuse_wrong_kind_exits_1(tmp_path, capsys):
    f1 = write(tmp_path / "rho.json", plus_state())
    f2 = write(tmp_path / "inst.json", luders_from_povm(z_povm()))
    assert main(["fuse", f1, f2, "--out", str(tmp_path / "c.json")]) == 1
    assert f1 in error_record(capsys, 1)["error"]


@pytest.mark.parametrize("command, wanted", [
    ("decompose", "an Instrument"),
    ("probs-measurement", "a Povm/Instrument"),
    ("probs-state", "a DensityOperator"),
])
def test_a_wrong_kind_of_file_is_named_with_its_article(command, wanted, tmp_path, capsys):
    channel = write(tmp_path / "channel.json", KrausChannel.from_ops([np.eye(2)]))
    rho = write(tmp_path / "rho.json", plus_state())
    argv = {"decompose": ["decompose", channel, "0"],
            "probs-measurement": ["probs", rho, channel],
            "probs-state": ["probs", channel, write(tmp_path / "povm.json", z_povm())]}
    assert main(argv[command]) == 1
    error = error_record(capsys, 1)["error"]
    assert error == f"ParseError: {channel}: expected {wanted} file, got KrausChannel"


def test_output_in_a_missing_directory_exits_1(tmp_path, capsys):
    inst = write(tmp_path / "inst.json", luders_from_povm(z_povm()))
    ch = write(tmp_path / "ch.json", KrausChannel.from_ops([np.eye(2)]))
    rho = write(tmp_path / "rho.json", plus_state())
    for argv in (["fuse", inst, inst], ["evolve", ch, rho]):
        out = str(tmp_path / "missing" / "out.json")
        assert main([*argv, "--out", out]) == 1
        assert out in error_record(capsys, 1)["error"]


# --- decompose -------------------------------------------------------------

def test_decompose_atom_outcome(tmp_path, capsys):
    path = write(tmp_path / "atom.json", harness.atom_demo())
    assert main(["decompose", path, "1"]) == 0
    report = last_json(capsys)
    assert report["kraus_rank"] == 2
    assert report["reconstruction_residual"] <= 1e-10
    assert report["premise"]["trace_residual"] <= 1e-12
    assert len(report["conditional_kraus"]) >= 1
    assert len(report["effect"]) == 3


def test_decompose_full_rank_luders_outcome(tmp_path, capsys):
    ideal = luders_from_povm(Povm.from_effects([np.diag([0.9, 0.6]),
                                                np.diag([0.1, 0.4])]))
    path = write(tmp_path / "ideal.json", ideal)
    assert main(["decompose", path, "0"]) == 0
    report = last_json(capsys)
    # full-rank effect: no kernel sector, conditional channel is the identity
    assert report["premise"]["support_rank"] == 2
    assert report["kraus_rank"] == 1
    assert report["reconstruction_residual"] <= 1e-10
    (kraus,) = report["conditional_kraus"]
    got = np.array([[complex(re, im) for re, im in row] for row in kraus])
    np.testing.assert_allclose(got, np.eye(2), atol=1e-9)


def test_decompose_phased_outcome_via_file(tmp_path, capsys):
    path = write(tmp_path / "sg.json", harness.stern_gerlach_demo())
    assert main(["decompose", path, "+z"]) == 0
    report = last_json(capsys)
    assert report["kraus_rank"] == 1
    assert report["reconstruction_residual"] <= 1e-10


def test_decompose_missing_label_exits_2(tmp_path, capsys):
    path = write(tmp_path / "atom.json", harness.atom_demo())
    assert main(["decompose", path, "zzz"]) == 2
    assert "zzz" in error_record(capsys, 2)["error"]


def test_decompose_reads_a_dashed_label_without_the_separator(tmp_path, capsys):
    path = write(tmp_path / "sg.json", harness.stern_gerlach_demo())
    assert main(["decompose", path, "--", "-z"]) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["label"] == "-z"
    for argv in ([path, "-z"], ["--tol", "1e-9", path, "-z"], [path, "-z", "--tol", "1e-9"],
                 [path, "--rank-tol=1e-9", "-z"], [path, "--rank-tol", "1e-9", "-z"]):
        assert main(["decompose", *argv]) == 0
        assert capsys.readouterr().out == expected
    # -h still prints the help, and a word that begins with "--" stays an option.
    with pytest.raises(SystemExit) as exc:
        main(["decompose", path, "-z", "-h"])
    assert exc.value.code == 0 and "instrument label" in capsys.readouterr().out
    for argv, error in (([path, "-z", "--bogus"], "unrecognized arguments: --bogus"),
                        ([path, "--bogus"], "required: label")):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", *argv])
        assert exc.value.code == 2 and error in capsys.readouterr().err


def planted_instrument(d, kernel_dim, kraus_per_outcome, rng):
    """Two outcomes whose outcome "0" effect F has an exact kernel of dimension
    `kernel_dim`: operators A_i sqrt(F) and A'_i sqrt(I - F) with {A_i}, {A'_i}
    random channels, so E's kernel block is kernel_dim * d operators with one
    nonzero row each."""
    u = harness.random_unitary(d, rng)
    lam = rng.uniform(0.1, 0.9, size=d)
    lam[:kernel_dim] = 0.0
    roots = [(u * np.sqrt(x)) @ u.conj().T for x in (lam, 1.0 - lam)]
    return Instrument(tuple(
        (str(k), KrausChannel.from_ops(harness.random_cptp(d, d, kraus_per_outcome, rng).kraus
                                       @ root))
        for k, root in enumerate(roots)))


def decompose_record(tmp_path, monkeypatch, capsys):
    """The payload `decompose` hands to `serialize.record_pieces` on a d=8
    planted instrument (kernel dimension 2, 2 Kraus operators per outcome), and
    its stdout."""
    inst = planted_instrument(8, 2, 2, np.random.default_rng(1))
    path = write(tmp_path / "planted-d8.json", inst)
    payloads = []
    record_pieces = serialize.record_pieces

    def spy(payload):
        payloads.append(payload)
        return record_pieces(payload)

    monkeypatch.setattr(serialize, "record_pieces", spy)
    assert main(["decompose", path, "0"]) == 0
    (payload,) = payloads
    assert payload["conditional_kraus"].shape == (2 + 2 * 8, 8, 8, 2)
    return payload, capsys.readouterr().out


def test_decompose_prints_json_dumps_of_its_record(tmp_path, monkeypatch, capsys):
    payload, out = decompose_record(tmp_path, monkeypatch, capsys)
    assert out == json.dumps(payload, default=np.ndarray.tolist) + "\n"


def test_decompose_record_is_written_without_its_nested_lists(tmp_path, monkeypatch, capsys):
    """The bound sits between the row writer's peak of about 3x the text and
    the 14x of a writer that builds the record's nested lists first."""
    payload, out = decompose_record(tmp_path, monkeypatch, capsys)
    tracemalloc.start()
    try:
        text = serialize.dumps(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text + "\n" == out
    assert peak < 5 * len(text)


def test_decompose_record_streams_to_stdout_at_little_more_than_its_text(tmp_path):
    """At d=32 (kernel 8, 4 operators per outcome: 260 operators, 3.7 MB of
    text) `_report` hands the record's pieces to the sink: its peak stays near
    the text, where one joined string printed took about 3x."""
    inst = planted_instrument(32, 8, 4, np.random.default_rng(1))
    channel = inst.channel("0")
    effect = inst.povm.effect("0")
    rec = decomposition.decompose(channel, effect)
    payload = {"command": "decompose", "label": "0",
               "effect": serialize.matrix_payload(effect.mat),
               "conditional_kraus": serialize.matrix_payload(rec.kraus)}
    assert payload["conditional_kraus"].shape == (260, 32, 32, 2)
    text = serialize.dumps(payload)
    with open(tmp_path / "record.json", "w", encoding="utf-8") as sink:
        with contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                cli._report(payload)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert (tmp_path / "record.json").read_text(encoding="utf-8") == text + "\n"
    assert peak < 1.5 * len(text)


@pytest.mark.parametrize("error, code", [(ValueError, 2), (MemoryError, 2), (OSError, 1)])
def test_a_row_writer_failure_leaves_only_the_error_record(tmp_path, monkeypatch, capsys,
                                                           error, code):
    """Every piece of a record is built before the first write, so a row writer
    that fails partway through `conditional_kraus` leaves stdout holding the
    error record alone."""
    path = write(tmp_path / "planted-d8.json",
                 planted_instrument(8, 2, 2, np.random.default_rng(1)))
    record_row = serialize._record_row
    calls = []

    def failing(row):
        calls.append(row.shape)
        if len(calls) == 12:  # the effect's 8 distinct rows come first
            raise error("row writer failed")
        return record_row(row)

    monkeypatch.setattr(serialize, "_record_row", failing)
    assert main(["decompose", path, "0"]) == code
    assert len(calls) == 12
    record = error_record(capsys, code)
    assert record["error"] == f"{error.__name__}: row writer failed"


def child_env() -> dict:
    """The environment of a child process that imports this qmeasure."""
    src = str(Path(qmeasure.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def closed_stdout_run(*argv):
    """Run the CLI in a child whose stdout pipe has no reader by the time it
    writes: the read end is closed before the child has imported numpy."""
    child = subprocess.Popen([sys.executable, "-m", "qmeasure.cli", *argv], env=child_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    return child.wait(timeout=120), err


@pytest.mark.parametrize("command, line", [
    ("decompose", "qmeasure decompose: BrokenPipeError: [Errno 32] Broken pipe"),
    ("verify", "qmeasure verify: ParseError: "),
], ids=["decompose", "verify"])
def test_a_closed_stdout_ends_in_one_stderr_line_and_exit_1(tmp_path, command, line):
    """The decompose record, or verify's error record for a malformed file,
    meets a closed stdout: no traceback, no record, and no exit-time flush error."""
    if command == "decompose":
        path = write(tmp_path / "planted-d8.json",
                     planted_instrument(8, 2, 2, np.random.default_rng(1)))
        code, err = closed_stdout_run("decompose", path, "0")
    else:
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "state"')
        code, err = closed_stdout_run("verify", str(path))
    assert code == 1
    (only,) = err.splitlines()
    assert only.startswith(line)


def test_calls_in_one_process_read_as_in_a_new_process(tmp_path, capsys):
    """The parser is built once per process and serves every `main` call: a usage
    error, a decompose and a suite, run one after another in this process, each
    give the exit code and stdout of the same command run in a new process."""
    path = write(tmp_path / "atom.json", harness.atom_demo())
    for argv in (["suite", "no-such-suite"], ["decompose", path, "1"],
                 ["suite", "lemma", "--trials", "1"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        fresh = subprocess.run([sys.executable, "-m", "qmeasure.cli", *argv], env=child_env(),
                               capture_output=True, text=True, timeout=120)
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv
    assert code == 0 and build_parser() is build_parser()


def test_decompose_and_demo_check_the_premise_once_per_outcome(tmp_path, monkeypatch):
    checked = []
    verify_premise = decomposition.verify_premise

    def counted(b, f):
        checked.append(f)
        return verify_premise(b, f)

    monkeypatch.setattr(decomposition, "verify_premise", counted)
    path = write(tmp_path / "atom.json", harness.atom_demo())
    assert main(["decompose", path, "1"]) == 0
    assert len(checked) == 1
    assert main(["demo", "atom"]) == 0
    assert len(checked) == 1 + 2


def test_decompose_runs_under_the_tolerances_its_options_set(tmp_path, capsys):
    """One policy per run: at eps = 1e-20 the effect check of the d=8 planted
    instrument fails (its spectrum leaves [0, 1] by about 2e-16), and a rank
    cutoff of 0.3 x max puts all six support eigenvalues within a factor 10 of
    the cutoff, where the default cutoff has none there."""
    inst = planted_instrument(8, 2, 2, np.random.default_rng(1))
    path = write(tmp_path / "planted-d8.json", inst)
    assert main(["decompose", path, "0", "--tol", "1e-20"]) == 2
    assert "effect spectrum leaves [0, 1]" in error_record(capsys, 2)["error"]
    assert main(["decompose", path, "0"]) == 0
    assert last_json(capsys)["premise"]["borderline_eigenvalues"] == []
    assert main(["decompose", path, "0", "--rank-tol", "0.3"]) == 0
    borderline = last_json(capsys)["premise"]["borderline_eigenvalues"]
    support = np.linalg.eigvalsh(induced_povm(inst).effect("0").mat)[2:]
    np.testing.assert_allclose(sorted(borderline), support, rtol=0, atol=1e-12)


# --- probs / evolve --------------------------------------------------------

def test_probs_plus_state(tmp_path, capsys):
    s = write(tmp_path / "rho.json", plus_state())
    p = write(tmp_path / "povm.json", z_povm())
    assert main(["probs", s, p]) == 0
    report = last_json(capsys)
    dist = {entry["label"]: entry["p"] for entry in report["probabilities"]}
    assert abs(dist["0"] - 0.5) < 1e-12
    assert abs(dist["1"] - 0.5) < 1e-12


def test_probs_reads_the_povm_of_an_instrument_file(tmp_path, capsys):
    inst = planted_instrument(8, 2, 2, np.random.default_rng(1))
    s = write(tmp_path / "rho.json", harness.random_density(8, np.random.default_rng(2)))
    assert main(["probs", s, write(tmp_path / "inst.json", inst)]) == 0
    from_instrument = capsys.readouterr()
    assert main(["probs", s, write(tmp_path / "povm.json", inst.povm)]) == 0
    assert capsys.readouterr() == from_instrument


def test_probs_dimension_mismatch_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(9)
    s = write(tmp_path / "rho.json", harness.random_density(3, rng))
    p = write(tmp_path / "povm.json", z_povm())
    assert main(["probs", s, p]) == 2
    assert "dimension" in error_record(capsys, 2)["error"]


def test_evolve_writes_state(tmp_path, capsys):
    gamma = 1.0
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    k1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    ch = write(tmp_path / "ad.json", KrausChannel.from_ops([k0, k1]))
    s = write(tmp_path / "rho.json", DensityOperator(np.eye(2) / 2))
    out = tmp_path / "evolved.json"
    assert main(["evolve", ch, s, "--out", str(out)]) == 0
    evolved = serialize.read_file(out)
    np.testing.assert_allclose(evolved.mat, np.diag([1.0, 0.0]), atol=1e-12)


# --- suite -----------------------------------------------------------------

def test_suite_nosignal_exit_0(capsys):
    assert main(["suite", "nosignal", "--trials", "20", "--seed", "42"]) == 0
    report = last_json(capsys)
    assert report["suite"] == "nosignal"
    assert report["passed"]
    assert report["max_residual"] <= 1e-9


def test_suite_lemma_exit_0(capsys):
    assert main(["suite", "lemma", "--trials", "20", "--seed", "5",
                 "--dims", "2,3"]) == 0
    report = last_json(capsys)
    assert report["max_residual"] <= 1e-9


def test_suite_linearity_with_nonlinear_box_exits_3(capsys):
    code = main(["suite", "linearity", "--trials", "10", "--seed", "7",
                 "--demo-nonlinear"])
    assert code == 3
    report = last_json(capsys)
    assert report["witnesses"], "expected a signaling witness in the report"


@pytest.mark.parametrize("bad", [["--trials", "0"], ["--trials", "-5"], ["--dims", "1"]])
def test_suite_rejects_bad_trials_and_dims_as_usage_errors(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "nosignal", *bad])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {bad[0]}:" in out.err
    assert "Traceback" not in out.err


def test_suite_takes_a_seed_from_0_and_rejects_a_negative_one_as_a_usage_error(capsys):
    assert main(["suite", "nosignal", "--trials", "1", "--seed", "0"]) == 0
    assert last_json(capsys)["seed"] == 0
    with pytest.raises(SystemExit) as exc:
        main(["suite", "nosignal", "--trials", "1", "--seed", "-5"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --seed: --seed needs an integer >= 0" in out.err
    assert "Traceback" not in out.err


def test_suite_runs_under_the_tolerance_its_option_sets(capsys):
    """At --tol 1e-30 each suite's first generated object fails its constructor's
    check; the record names the suite, trial and seed, so that trial can be rerun."""
    for suite in ("nosignal", "linearity", "lemma"):
        assert main(["suite", suite, "--trials", "1", "--tol", "1e-30"]) == 2
        error = error_record(capsys, 2)["error"]
        assert error.startswith(f"ValueError: suite {suite} trial 0 (seed 42): ")


def test_suite_reports_are_seed_stable(capsys):
    assert main(["suite", "nosignal", "--trials", "10", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["suite", "nosignal", "--trials", "10", "--seed", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_suite_all_reports_after_every_suite_has_run(capsys, monkeypatch):
    """A suite that raises after others have passed leaves the error record as
    the run's one record, and its stderr line as the one line."""
    def broken(**kwargs):
        raise ValueError("suite lemma trial 0 (seed 1): planted failure")

    monkeypatch.setattr(harness, "run_lemma_suite", broken)
    assert main(["suite", "all", "--trials", "1", "--seed", "1"]) == 2
    record = error_record(capsys, 2)
    assert record["error"] == "ValueError: suite lemma trial 0 (seed 1): planted failure"


def test_suite_all_prints_each_report_in_suite_order(capsys):
    assert main(["suite", "all", "--trials", "1", "--seed", "1"]) == 0
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines()]
    assert [r["suite"] for r in records] == ["nosignal", "linearity", "lemma"]
    assert [line.split(":")[0] for line in out.err.splitlines()] == [
        "suite nosignal", "suite linearity", "suite lemma"]


def test_suite_out_of_memory_exits_2_with_a_record(capsys, monkeypatch):
    # Raised, never provoked: a real oversized request could fill the host's memory.
    def oversized(**kwargs):
        raise MemoryError("Unable to allocate 116. TiB for an array")

    monkeypatch.setattr(harness, "run_nosignal_suite", oversized)
    assert main(["suite", "nosignal", "--trials", "1", "--dims", "2,2000000"]) == 2
    error = error_record(capsys, 2)["error"]
    assert error == "MemoryError: Unable to allocate 116. TiB for an array"


# --- demo ------------------------------------------------------------------

def test_demo_correlated_env(capsys):
    assert main(["demo", "correlated-env"]) == 0
    report = last_json(capsys)
    post1 = np.array([[complex(re, im) for re, im in row]
                      for row in report["post_system_first"]])
    post2 = np.array([[complex(re, im) for re, im in row]
                      for row in report["post_system_second"]])
    np.testing.assert_allclose(post1, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(post2, np.diag([1.0, 0.0]), atol=1e-12)
    assert report["initial_residual"] <= 1e-12


def test_demo_stern_gerlach(capsys):
    assert main(["demo", "stern-gerlach"]) == 0
    report = last_json(capsys)
    ranks = {o["label"]: o["kraus_rank"] for o in report["outcomes"]}
    assert ranks == {"+z": 1, "-z": 1}
    assert all(o["reconstruction_residual"] <= 1e-10 for o in report["outcomes"])


@pytest.mark.parametrize("which, build", [("atom", harness.atom_demo),
                                          ("stern-gerlach", harness.stern_gerlach_demo)])
def test_demo_outcomes_are_the_decompose_records(which, build, tmp_path, capsys):
    inst = build()
    path = write(tmp_path / "demo.json", inst)
    assert main(["demo", which]) == 0
    outcomes = last_json(capsys)["outcomes"]
    assert [o["label"] for o in outcomes] == list(inst.labels)
    for outcome in outcomes:
        assert main(["decompose", path, "--", outcome["label"]]) == 0  # "--" before "-z"
        record = last_json(capsys)
        assert record.pop("command") == "decompose"
        assert list(outcome) == list(record)
        assert outcome == record


def test_demo_atom(capsys):
    assert main(["demo", "atom"]) == 0
    report = last_json(capsys)
    ranks = {o["label"]: o["kraus_rank"] for o in report["outcomes"]}
    assert ranks == {"0": 1, "1": 2}
    assert all(o["reconstruction_residual"] <= 1e-10 for o in report["outcomes"])
