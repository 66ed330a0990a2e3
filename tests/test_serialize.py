"""The JSON writers over array payloads against `json.dumps` and the
nested-list file writer, and the one-conversion matrix reader against the
per-entry loop."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeasure import cli, harness, serialize
from qmeasure.channels import (ChoiMatrix, KrausChannel, Superoperator, adjoint,
                               choi_from_map, kraus_from_choi, superop_from_map)
from qmeasure.measure import Instrument, luders_from_povm

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e16, -1e16, 1e15, 9007199254740993.0,
               1.0, -2.0, 3.0, 0.1, 1 / 3, 1e-5, 2.2250738585072014e-308]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.integers(-2 ** 60, 2 ** 60).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def complex_arrays(draw, floats):
    """Complex arrays of shape (1, 1), (d, d) or (n, d, d), repeated values included."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(1, 1), (d, d), (n, d, d)]))
    size = int(np.prod(shape))
    pool = draw(st.lists(floats, min_size=1, max_size=6))
    values = draw(st.lists(st.one_of(floats, st.sampled_from(pool)),
                           min_size=2 * size, max_size=2 * size))
    return np.array(values, dtype=np.float64).view(np.complex128).reshape(shape)


@st.composite
def row_stacks(draw, floats, specials: bool, mixed: bool = False):
    """Complex arrays of shape (k,), (d, d) or (n, d, d) whose rows are drawn
    from a small pool, so rows repeat: a drawn row, an all-zero row, a zero
    row with drawn signs, the drawn row with the sign of each zero flipped,
    and with `specials` a row of NaN and +-Inf.  With `mixed` the array is an
    (n, d, d) stack that holds every row of the pool, in a drawn order."""
    d = draw(st.integers(1, 4))

    def row(elements):
        return np.array(draw(st.lists(elements, min_size=2 * d, max_size=2 * d)))

    base = row(st.one_of(floats, st.sampled_from([0.0, -0.0])))
    pool = [base, np.zeros(2 * d), row(st.sampled_from([0.0, -0.0])),
            np.where(base == 0, np.copysign(0.0, -np.copysign(1.0, base)), base)]
    if specials:
        pool.append(row(st.sampled_from([np.nan, np.inf, -np.inf])))
    if mixed:
        least = -(-len(pool) // d)
        shape = (draw(st.integers(least, least + 3)), d, d)
    else:
        n = draw(st.integers(1, 4))
        shape = draw(st.sampled_from([(d,), (d, d), (n, d, d)]))
    count = int(np.prod(shape[:-1]))
    extra = count - len(pool) if mixed else count
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=extra, max_size=extra))
    if mixed:
        picks = draw(st.permutations(picks + list(range(len(pool)))))
    return np.stack([pool[i] for i in picks]).view(np.complex128).reshape(shape)


def as_lists(node):
    """The payload with every array leaf as the nested lists it stands for."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {key: as_lists(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [as_lists(value) for value in node]
    return node


def reference_fmt(x: float) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0
    return f"{v:.17g}"


def reference_emit(node, out: list) -> None:
    """The file writer over nested-list payloads, as it was before payloads held arrays."""
    if isinstance(node, dict):
        out.append("{")
        for i, (key, value) in enumerate(node.items()):
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            reference_emit(value, out)
        out.append("}")
    elif isinstance(node, (list, tuple)):
        out.append("[")
        for i, value in enumerate(node):
            if i:
                out.append(",")
            reference_emit(value, out)
        out.append("]")
    elif isinstance(node, bool):
        out.append("true" if node else "false")
    elif isinstance(node, int):
        out.append(str(node))
    elif isinstance(node, float):
        out.append(reference_fmt(node))
    elif isinstance(node, str):
        out.append(json.dumps(node))
    else:
        raise TypeError(f"cannot serialize {type(node).__name__}")


def reference_text(obj) -> str:
    out: list = []
    reference_emit(as_lists(serialize.to_payload(obj)), out)
    return "".join(out) + "\n"


@settings(deadline=None, max_examples=150)
@given(m=complex_arrays(ANY_FLOAT), scalar=ANY_FLOAT)
def test_dumps_is_the_text_of_json_dumps(m, scalar):
    payload = {"command": "x", "m": serialize.matrix_payload(m),
               "nested": [serialize.matrix_payload(m[..., :1, :]), scalar, -0.0, 7, None,
                          True, "é\n"],
               "empty": []}
    assert serialize.dumps(payload) == json.dumps(as_lists(payload))


@settings(deadline=None, max_examples=150)
@given(m=row_stacks(ANY_FLOAT, specials=True))
def test_dumps_writes_repeated_rows_as_json_dumps_does(m):
    pairs = serialize.matrix_payload(m)
    payload = {"m": pairs, "again": [pairs, {"rows": pairs[..., ::-1, :]}]}
    assert serialize.dumps(payload) == json.dumps(as_lists(payload))


@settings(deadline=None, max_examples=150)
@given(m=row_stacks(FINITE, specials=False))
def test_to_text_writes_repeated_rows_as_the_recursive_writer_does(m):
    obj = KrausChannel.from_ops(m.reshape((1,) * (3 - m.ndim) + m.shape))
    assert serialize.to_text(obj) == reference_text(obj)


def streamed_record(payload) -> str:
    """What `cli._report` writes to stdout for the payload."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._report(payload)
    return out.getvalue()


def written_file(obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obj.json"
        serialize.write_file(path, obj)
        return path.read_bytes()


@settings(deadline=None, max_examples=150)
@given(m=row_stacks(ANY_FLOAT, specials=True, mixed=True))
def test_records_of_stacks_mixing_zero_signed_zero_and_special_rows(m):
    """Zero rows share one text, finite rows take the printf template and
    rows with NaN or +-Inf take json.dumps: all of them in one stack."""
    pairs = serialize.matrix_payload(m)
    payload = {"m": pairs, "again": [pairs, {"rows": pairs[..., ::-1, :]}]}
    text = json.dumps(as_lists(payload))
    assert serialize.dumps(payload) == text
    assert streamed_record(payload) == text + "\n"


@settings(deadline=None, max_examples=150)
@given(m=row_stacks(FINITE, specials=False, mixed=True))
def test_files_of_stacks_mixing_zero_and_signed_zero_rows(m):
    obj = KrausChannel.from_ops(m)
    text = serialize.to_text(obj)
    assert text == reference_text(obj)
    assert written_file(obj) == text.encode("utf-8")


def test_write_file_writes_the_text_of_every_object_kind():
    rng = np.random.default_rng(8)
    channel = harness.random_cptp(3, 2, 2, rng)
    povm = harness.random_povm(3, 3, rng)
    objects = [harness.random_density(3, rng), povm, channel, superop_from_map(channel),
               luders_from_povm(povm), harness.stern_gerlach_demo()]
    kinds = {serialize.to_payload(obj)["kind"] for obj in objects}
    assert kinds == {"density", "povm", "kraus_channel", "superoperator", "instrument"}
    for obj in objects:
        text = serialize.to_text(obj)
        assert written_file(obj) == text.encode("utf-8")
        assert serialize.to_text(serialize.from_text(text)) == text


def test_rows_that_differ_only_in_the_sign_of_a_zero_are_written_apart():
    m = np.array([[0j, 1], [complex(-0.0, 0.0), 1], [0j, 1]])
    assert serialize.dumps(serialize.matrix_payload(m)) == (
        "[[[0.0, 0.0], [1.0, 0.0]], [[-0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]")
    # files write both zeros as 0
    assert serialize.to_text(KrausChannel.from_ops(m[None])) == (
        '{"kind":"kraus_channel","dims":[2,3],"data":{"kraus":'
        '[[[[0,0],[1,0]],[[0,0],[1,0]],[[0,0],[1,0]]]]}}\n')


def test_payload_keys_must_be_strings():
    for key in (1, 1.5, None, ("a",)):
        with pytest.raises(TypeError, match="payload keys must be strings"):
            serialize.dumps({"ok": 1, key: 2})


def test_dumps_keeps_the_sign_of_zero_and_json_spellings():
    m = np.array([[complex(0.0, -0.0), complex(-0.0, 0.0)],
                  [complex(np.nan, np.inf), complex(-np.inf, 1e16)]])
    text = serialize.dumps({"m": serialize.matrix_payload(m)})
    assert text == ('{"m": [[[0.0, -0.0], [-0.0, 0.0]], '
                    '[[NaN, Infinity], [-Infinity, 1e+16]]]}')


def test_matrix_payload_is_a_read_only_pair_array():
    m = np.array([[1 + 2j, 3 - 4j]])
    pairs = serialize.matrix_payload(m)
    assert pairs.dtype == np.float64 and pairs.shape == (1, 2, 2)
    assert not pairs.flags.writeable
    np.testing.assert_array_equal(pairs, [[[1.0, 2.0], [3.0, -4.0]]])
    m[0, 0] = 0.0
    assert pairs[0, 0, 0] == 1.0  # a copy, not a view of the caller's array


def test_matrix_payload_takes_any_memory_layout():
    a = np.arange(6).reshape(2, 3) * (1 - 2j)
    stack = np.arange(24).reshape(2, 3, 4) * (1 + 1j)
    for m in (a.T, np.asfortranarray(a), a[:, ::2], stack.transpose(0, 2, 1),
              a.real.T):
        pairs = serialize.matrix_payload(m)
        assert pairs.shape == m.shape + (2,)
        np.testing.assert_array_equal(pairs[..., 0] + 1j * pairs[..., 1], m)


def test_channels_with_transposed_kraus_stacks_round_trip():
    """adjoint and kraus_from_choi keep a transposed memory layout."""
    rng = np.random.default_rng(5)
    k = KrausChannel.from_ops(rng.standard_normal((3, 3, 2)) + 1j * rng.standard_normal((3, 3, 2)))
    for obj in (adjoint(k), kraus_from_choi(choi_from_map(k))):
        assert obj.d_in > 1 and obj.d_out > 1
        text = serialize.to_text(obj)
        assert text == reference_text(obj)
        back = serialize.from_text(text)
        np.testing.assert_array_equal(back.kraus, obj.kraus)
        assert serialize.to_text(back) == text
        payload = serialize.to_payload(obj)
        assert serialize.dumps(payload) == json.dumps(as_lists(payload))



@pytest.mark.parametrize("cast", [np.int64, float], ids=["int64", "float"])
def test_maps_built_with_numpy_or_float_dimensions_write_int_dims(cast):
    ch = harness.random_cptp(2, 3, 2, np.random.default_rng(33))
    d_in, d_out = cast(2), cast(3)
    kraus = KrausChannel(ch.kraus)
    choi = ChoiMatrix(choi_from_map(ch).mat, d_in=d_in, d_out=d_out)
    cases = [(kraus, ch),
             (Superoperator(superop_from_map(ch).mat),
              superop_from_map(ch)),
             (superop_from_map(choi), superop_from_map(choi_from_map(ch))),
             (Instrument((("a", kraus),)), Instrument((("a", ch),)))]
    for obj, built_with_ints in cases:
        text = serialize.to_text(obj)
        assert text == serialize.to_text(built_with_ints) and '"dims":[2,3]' in text
        assert serialize.to_text(serialize.from_text(text)) == text


def file_objects():
    kraus = complex_arrays(FINITE).map(lambda a: a.reshape((-1,) + a.shape[-2:]))
    channels = kraus.map(KrausChannel.from_ops)
    superops = st.integers(1, 2).flatmap(lambda d: st.lists(
        FINITE, min_size=2 * d ** 4, max_size=2 * d ** 4).map(
        lambda v, d=d: Superoperator(np.array(v).view(np.complex128).reshape(d * d, d * d))))
    return st.one_of(channels, superops)


@settings(deadline=None, max_examples=100)
@given(obj=file_objects())
def test_to_text_matches_the_recursive_writer_and_round_trips(obj):
    text = serialize.to_text(obj)
    assert text == reference_text(obj)
    assert serialize.to_text(serialize.from_text(text)) == text


# The reader: one shape check for every matrix.

MATRIX_2x2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
MATRIX_3x3 = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]


@pytest.mark.parametrize("doc, message", [
    ({"kind": "density", "dim": 2, "data": {"mat": MATRIX_3x3}},
     "mat: shape (3, 3) does not match (2, 2)"),
    ({"kind": "povm", "dim": 2, "data": {"outcomes": [
        {"label": "a", "mat": MATRIX_2x2}, {"label": "b", "mat": MATRIX_3x3}]}},
     "outcomes[1].mat: shape (3, 3) does not match (2, 2)"),
    ({"kind": "kraus_channel", "dims": [2, 2], "data": {"kraus": [MATRIX_3x3]}},
     "kraus[0]: shape (3, 3) does not match (2, 2)"),
    ({"kind": "superoperator", "dims": [1, 1], "data": {"mat": MATRIX_2x2}},
     "mat: shape (2, 2) does not match (1, 1)"),
    ({"kind": "instrument", "dims": [2, 2], "data": {"outcomes": [
        {"label": "a", "kraus": [MATRIX_2x2, MATRIX_3x3]}]}},
     "outcomes[0].kraus[1]: shape (3, 3) does not match (2, 2)"),
])
def test_every_shaped_matrix_reports_its_shape_mismatch_alike(doc, message):
    with pytest.raises(serialize.ParseError) as info:
        serialize.parse_text(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize("kind, extra", [("povm", {"dim": 2}), ("instrument", {"dims": [2, 2]})])
@pytest.mark.parametrize("outcomes, message", [
    (None, "'outcomes' must be a non-empty array"),
    ([], "'outcomes' must be a non-empty array"),
    ([{"label": "a", "mat": [], "kraus": []}, {"label": 3}],
     "outcomes[1]: expected an object with a string label"),
    (["a"], "outcomes[0]: expected an object with a string label"),
])
def test_povm_and_instrument_read_their_outcome_lists_alike(kind, extra, outcomes, message):
    doc = {"kind": kind, **extra, "data": {} if outcomes is None else {"outcomes": outcomes}}
    with pytest.raises(serialize.ParseError) as info:
        serialize.parse_text(json.dumps(doc))
    assert str(info.value) == message


# The reader: the one-conversion path against the per-entry loop alone.

def parse_outcome(text: str, fast: bool):
    """parse_text's matrices, or its ParseError text."""
    patch = mock.patch.object(serialize, "_matrix_at_once", return_value=None)
    try:
        if fast:
            parsed = serialize.parse_text(text)
        else:
            with patch:
                parsed = serialize.parse_text(text)
    except serialize.ParseError as exc:
        return str(exc)
    if parsed["kind"] == "povm":
        return parsed["mats"]
    return parsed["kraus"]


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
INNER_ARRAY = re.compile(r"\[[^\[\]]*\]")
TOKENS = ["true", "false", '"x"', "null", "NaN", "1e400", "1" + "0" * 400]


@st.composite
def parse_texts(draw):
    """A povm or kraus_channel file with number entries (ints included), then
    at most one mutation: a number replaced by a token or nested once more, or
    one innermost array doubled (a ragged row)."""
    d_in, d_out, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    number = st.one_of(FINITE, st.integers(-10 ** 20, 10 ** 20))

    def matrix(rows, cols):
        return draw(st.lists(st.lists(st.lists(number, min_size=2, max_size=2),
                                      min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        doc = {"kind": "povm", "dim": d_in,
               "data": {"outcomes": [{"label": f"o{i}", "mat": matrix(d_in, d_in)}
                                     for i in range(n)]}}
    else:
        doc = {"kind": "kraus_channel", "dims": [d_in, d_out],
               "data": {"kraus": [matrix(d_out, d_in) for _ in range(n)]}}
    text = json.dumps(doc)
    mutation = draw(st.sampled_from(["none", "token", "nest", "ragged"]))
    if mutation in ("token", "nest"):
        spans = [m.span() for m in NUMBER.finditer(text)]
        start, end = draw(st.sampled_from(spans))
        new = draw(st.sampled_from(TOKENS)) if mutation == "token" else f"[{text[start:end]}]"
        text = text[:start] + new + text[end:]
    elif mutation == "ragged":
        spans = [m.span() for m in INNER_ARRAY.finditer(text)]
        start, end = draw(st.sampled_from(spans))
        text = text[:end] + ", " + text[start:end] + text[end:]
    return text


@settings(deadline=None, max_examples=200)
@given(text=parse_texts())
# numbers the loop rejects but numpy reads: a float literal that overflows to
# inf, and an integer literal beyond the float range
@example(text='{"kind": "povm", "dim": 1, "data": {"outcomes": '
              '[{"label": "a", "mat": [[[1e400, 0]]]}]}}')
@example(text='{"kind": "kraus_channel", "dims": [1, 1], "data": '
              '{"kraus": [[[[0, 1%s]]]]}}' % ("0" * 400))
def test_one_conversion_reader_agrees_with_the_loop(text):
    fast, slow = parse_outcome(text, True), parse_outcome(text, False)
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype == np.complex128 and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_reader_converts_each_well_formed_matrix_at_once():
    rng = np.random.default_rng(3)
    text = serialize.to_text(KrausChannel.from_ops(rng.standard_normal((3, 2, 4))))
    results = []
    at_once = serialize._matrix_at_once

    def spy(node):
        results.append(at_once(node))
        return results[-1]

    with mock.patch.object(serialize, "_matrix_at_once", spy):
        serialize.parse_text(text)
        assert len(results) == 3 and all(r is not None for r in results)
        # a bool anywhere in the text sends every matrix through the loop
        results.clear()
        povm = ('{"kind": "povm", "dim": 1, "data": {"outcomes": '
                '[{"label": "true", "mat": [[[1.0, 0.0]]]}]}}')
        assert serialize.parse_text(povm)["mats"][0].tolist() == [[1 + 0j]]
        assert results == []
