import base64
import dataclasses
import json
import re
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from robustpr import (
    FieldTag,
    GrayImage,
    MeasurementEnsemble,
    NoiseSpec,
    SolverConfig,
    apply_noise,
    deserialize_instance,
    generate_sampling,
    generate_signal,
    serialize_instance,
    solve,
    spectral_init,
    synthesize_instance,
)
from robustpr.errors import ParseError
from robustpr.model import (
    NOISE_KINDS,
    _check_count,
    _check_nonnegative,
    _check_positive,
    correlate,
    decode_vector,
    render_json,
    write_json,
)
from robustpr.rng import _check_seed


def test_generate_signal_sparsity_large_instance():
    x = generate_signal(p=128, s=12, field=FieldTag.REAL, seed=1)
    assert x.shape == (128,)
    assert np.count_nonzero(x) == 12


def test_generate_signal_full_support():
    x = generate_signal(p=4, s=4, field=FieldTag.REAL, seed=7)
    assert np.count_nonzero(x) == 4


def test_generate_signal_complex_deterministic():
    x1 = generate_signal(p=64, s=6, field=FieldTag.COMPLEX, seed=3)
    x2 = generate_signal(p=64, s=6, field=FieldTag.COMPLEX, seed=3)
    assert np.count_nonzero(x1) == 6
    assert x1.dtype == np.complex128
    np.testing.assert_array_equal(x1, x2)


def test_generate_signal_invalid_arguments():
    with pytest.raises(ValueError):
        generate_signal(p=4, s=5, field=FieldTag.REAL, seed=0)
    with pytest.raises(ValueError, match="^p must be a positive integer, got 0$"):
        generate_signal(p=0, s=0, field=FieldTag.REAL, seed=0)
    for s in (2.0, True):  # the count rule, not NumPy's TypeError
        with pytest.raises(ValueError, match=f"^s must be a positive integer, got {s}$"):
            generate_signal(16, s, FieldTag.REAL, 1)


def test_generate_sampling_real_variance():
    a = generate_sampling(p=128, n=256, field=FieldTag.REAL, seed=1)
    assert a.shape == (256, 128)
    assert abs(np.var(a) - 1.0) < 0.1


def test_generate_sampling_smallest_instance():
    a = generate_sampling(p=1, n=1, field=FieldTag.REAL, seed=0)
    assert a.shape == (1, 1) and np.isfinite(a[0, 0])


@pytest.mark.parametrize("p, n", [(0, 4), (4, 0)])
def test_generate_sampling_refuses_an_empty_shape(p, n):
    name = "p" if p == 0 else "n"
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got 0$"):
        generate_sampling(p=p, n=n, field=FieldTag.REAL, seed=0)


@pytest.mark.parametrize("value", [0, -3, 2.0, 2.5, np.nan, True, np.True_, "2", None])
def test_check_count_names_the_first_bad_count_and_its_value(value):
    with pytest.raises(ValueError,
                       match=f"^n must be a positive integer, got {re.escape(str(value))}$"):
        _check_count(p=3, n=value, s=0)


def test_each_rule_hands_back_the_python_scalar_it_accepts():
    # one value alone, several as a tuple, each the Python number it equals
    got = [_check_positive(lam=np.float32(1e-3)), _check_positive(a=2, b=np.float16(0.5)),
           _check_nonnegative(eta=np.int64(0)), _check_count(p=np.uint16(16), n=3),
           _check_seed(seed=np.int64(-3))]
    want = [float(np.float32(1e-3)), (2.0, 0.5), 0.0, (16, 3), -3]
    assert got == want
    assert [type(v) for v in got] == [float, tuple, float, tuple, int]
    assert [type(v) for pair in (got[1], got[3]) for v in pair] == [float] * 2 + [int] * 2


@pytest.mark.parametrize("rule, message", [
    (_check_positive, "v must be finite and positive"),
    (_check_nonnegative, "v must be finite and nonnegative"),
    (_check_count, "v must be a positive integer"),
    (_check_seed, "v must be an integer"),
])
@pytest.mark.parametrize("value", [True, np.True_, "1", None, 1j, np.array([1.0])])
def test_every_rule_refuses_a_bool_and_a_non_number(rule, message, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{message}, got {value}')}$"):
        rule(v=value)


def test_generators_take_numpy_integer_counts():
    # any non-bool integer is a count: a NumPy one gives the same draws
    x = generate_signal(np.int64(8), np.int32(2), FieldTag.REAL, 1)
    np.testing.assert_array_equal(x, generate_signal(8, 2, FieldTag.REAL, 1))
    a = generate_sampling(np.int64(8), np.uint16(16), FieldTag.COMPLEX, 1)
    np.testing.assert_array_equal(a, generate_sampling(8, 16, FieldTag.COMPLEX, 1))


def test_generate_sampling_complex_second_moment():
    a = generate_sampling(p=8, n=16, field=FieldTag.COMPLEX, seed=2)
    assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 0.25


def test_apply_noise_none():
    clean = np.array([1.0, 2.0, 3.0])
    x = np.array([1.0, 0.0])
    b, eps = apply_noise(clean, x, NoiseSpec("none"), seed=0)
    np.testing.assert_array_equal(b, clean)
    assert not eps.any()


def test_apply_noise_type1_bounded_and_mean():
    x = np.array([2.0, 0.0])  # ||x||^2 = 4, so eps ~ U(0, 0.4)
    clean = np.ones(10000)
    b, eps = apply_noise(clean, x, NoiseSpec("type1", 0.1), seed=5)
    assert np.all(eps >= 0.0) and np.all(eps <= 0.4)
    assert abs(np.mean(eps) - 0.2) < 0.03
    np.testing.assert_allclose(b, clean + eps)


def test_apply_noise_type3_replacement_fraction():
    x = np.array([1.0, 1.0])
    clean = np.full(10000, 1.7)
    b, eps = apply_noise(clean, x, NoiseSpec("type3", 0.1), seed=9)
    frac = np.mean(eps != 0.0)
    assert abs(frac - 0.1) < 0.02
    untouched = eps == 0.0
    np.testing.assert_array_equal(b[untouched], clean[untouched])
    corrupted = b[~untouched]
    assert np.all(corrupted >= 0.0) and np.all(corrupted <= 2.0)


def test_apply_noise_type2_scale():
    x = np.array([1.0])
    clean = np.full(20000, 2.0)
    # mu = eta * sqrt(mean clean^2) = 0.1 * 2; Laplace(0, mu/sqrt 2) has std mu
    b, eps = apply_noise(clean, x, NoiseSpec("type2", 0.1), seed=2)
    assert abs(np.std(eps) - 0.2) < 0.02


def test_apply_noise_gaussian_scale():
    x = np.array([1.0])
    clean = np.full(20000, 3.0)
    b, eps = apply_noise(clean, x, NoiseSpec("gaussian", 0.05), seed=3)
    # eps_i = eta * ||clean|| / sqrt(n) * w_i with std eta * rms(clean)
    assert abs(np.std(eps) - 0.15) < 0.02


def test_noise_spec_rejects_negative_eta():
    with pytest.raises(ValueError, match="^eta must be finite and nonnegative, got -0.5$"):
        NoiseSpec("type1", -0.5)
    with pytest.raises(ValueError,
                       match="^type3 eta is a probability and must be at most 1, got 1.5$"):
        NoiseSpec("type3", 1.5)


def test_noise_spec_refuses_a_bool_and_stores_a_python_float():
    # a bool eta once printed as type1:1
    for bad in (True, np.True_):
        with pytest.raises(ValueError,
                           match="^eta must be finite and nonnegative, got True$"):
            NoiseSpec("type1", bad)
    spec = NoiseSpec("type1", np.float32(0.5))
    assert type(spec.eta) is float and spec == NoiseSpec("type1", 0.5)
    assert type(NoiseSpec("type3", 1).eta) is float


@pytest.mark.parametrize("text", ["type2:", "type2", "type2:abc", "1.5"])
def test_noise_spec_parse_names_a_malformed_spec(text):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"noise spec must look like 'kind:eta', got {text!r}") + "$"):
        NoiseSpec.parse(text)


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf,
                                 pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_noise_spec_rejects_non_finite_eta(kind, eta):
    with pytest.raises(ValueError, match="eta must be finite"):
        NoiseSpec(kind, eta)
    with pytest.raises(ValueError, match="eta must be finite"):
        NoiseSpec.parse(f"{kind}:{eta}")


def test_noise_spec_parse_roundtrip():
    spec = NoiseSpec.parse("type2:0.1")
    assert spec.kind == "type2" and spec.eta == 0.1
    assert str(spec) == "type2:0.1"
    with pytest.raises(ValueError):
        NoiseSpec.parse("type2")
    with pytest.raises(ValueError):
        NoiseSpec.parse("bogus:1")


def test_synthesize_instance_consistency():
    e = synthesize_instance(128, 12, 768, FieldTag.REAL, NoiseSpec("type2", 0.1), 5)
    assert e.n == 768 and e.p == 128
    clean = np.abs(correlate(e.sampling_vectors, e.ground_truth)) ** 2
    gap = np.max(np.abs(e.observations - clean - e.noise_record))
    assert gap <= 1e-12 * (1.0 + np.max(e.observations))


def test_synthesize_instance_noiseless_exact():
    e = synthesize_instance(4, 1, 4, FieldTag.REAL, NoiseSpec("none"), 1)
    clean = (e.sampling_vectors @ e.ground_truth) ** 2
    np.testing.assert_array_equal(e.observations, clean)
    assert not e.noise_record.any()


def test_synthesize_instance_deterministic():
    e1 = synthesize_instance(16, 3, 64, FieldTag.COMPLEX, NoiseSpec("type1", 0.1), 9)
    e2 = synthesize_instance(16, 3, 64, FieldTag.COMPLEX, NoiseSpec("type1", 0.1), 9)
    np.testing.assert_array_equal(e1.sampling_vectors, e2.sampling_vectors)
    np.testing.assert_array_equal(e1.observations, e2.observations)
    np.testing.assert_array_equal(e1.ground_truth, e2.ground_truth)


def _nudged(e):
    """``e`` with its first matrix entry one ulp up, so that the matrix is not
    its seed's draw, and the observations measured again through it."""
    a = e.sampling_vectors.copy()
    flat = a.view(np.float64).reshape(-1)  # the real part first when complex
    flat[0] = np.nextafter(flat[0], np.inf)
    b = e.observations
    if e.ground_truth is not None:
        eps = 0.0 if e.noise_record is None else e.noise_record
        b = np.abs(correlate(a, e.ground_truth)) ** 2 + eps
    return MeasurementEnsemble(a, b, e.ground_truth, e.noise_record, e.seed)


def test_serialize_roundtrip_bit_identical():
    e = synthesize_instance(16, 3, 64, FieldTag.COMPLEX, NoiseSpec("type1", 0.1), 9)
    doc = serialize_instance(e)
    back = deserialize_instance(doc)
    assert _bits(back.sampling_vectors) == _bits(e.sampling_vectors)
    np.testing.assert_array_equal(back.observations, e.observations)
    np.testing.assert_array_equal(back.ground_truth, e.ground_truth)
    np.testing.assert_array_equal(back.noise_record, e.noise_record)
    assert back.seed == e.seed and back.field == e.field
    assert serialize_instance(back) == doc


def test_a_numpy_seed_serializes_as_the_python_seed_it_equals():
    # a NumPy seed was kept raw, and json refused to write it
    ours = synthesize_instance(16, 2, 64, FieldTag.REAL, NoiseSpec(), np.int64(3))
    assert type(ours.seed) is int
    assert serialize_instance(ours) == serialize_instance(
        synthesize_instance(16, 2, 64, FieldTag.REAL, NoiseSpec(), 3))


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None])
def test_a_seed_that_is_not_an_integer_is_refused_where_it_is_given(seed):
    message = f"^seed must be an integer, got {re.escape(str(seed))}$"
    with pytest.raises(ValueError, match=message):
        MeasurementEnsemble(np.ones((3, 2)), np.ones(3), seed=seed)
    with pytest.raises(ValueError, match=message):
        generate_signal(8, 2, FieldTag.REAL, seed)


def test_serialize_roundtrip_minimal():
    e = synthesize_instance(1, 1, 1, FieldTag.REAL, NoiseSpec("none"), 0)
    back = deserialize_instance(serialize_instance(e))
    assert back.n == 1 and back.p == 1


def test_deserialize_empty_document():
    with pytest.raises(ParseError, match="missing field: p"):
        deserialize_instance("{}")


def test_deserialize_malformed():
    with pytest.raises(ParseError):
        deserialize_instance("not json")
    e = _nudged(synthesize_instance(2, 1, 3, FieldTag.REAL, NoiseSpec("none"), 0))
    doc = json.loads(serialize_instance(e))
    doc["a"] = doc["a"][:-1]  # wrong length
    with pytest.raises(ParseError, match="a"):
        deserialize_instance(json.dumps(doc))
    doc["a"] = doc["a"][:-3]  # whole base64 quanta, 3 bytes short
    with pytest.raises(ParseError, match="malformed field: a$"):
        deserialize_instance(json.dumps(doc))


def _bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


@pytest.mark.parametrize("field, a, expected", [
    (FieldTag.REAL, "AAAAAAAA8D8=", [[1.0]]),
    (FieldTag.COMPLEX, "AAAAAAAA8D8AAAAAAAAAQAAAAAAAAACAAAAAAAAA4L8=",
     [[1 + 2j], [-0.0 - 0.5j]]),
])
def test_matrix_bytes_are_little_endian_row_major(field, a, expected):
    n = len(expected)
    doc = {"field": field.value, "p": 1, "n": n, "seed": 0, "a": a, "b": [0.0] * n}
    e = deserialize_instance(json.dumps(doc))
    expected = np.array(expected, dtype=field.dtype)
    assert _bits(e.sampling_vectors) == _bits(expected)
    assert json.loads(serialize_instance(e))["a"] == a


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_decoded_matrix_is_native_and_writable(field):
    e = synthesize_instance(4, 2, 8, field, NoiseSpec("none"), 1)
    a = deserialize_instance(serialize_instance(e)).sampling_vectors
    assert a.dtype == field.dtype and a.dtype.isnative
    assert a.flags.writeable and a.flags.c_contiguous


def _dumped(e, drawn=False):
    """json.dumps of the instance document, built field by field; ``a`` is
    the checksum of the matrix bytes if ``drawn``, else their base64."""
    a = e.sampling_vectors.astype(np.dtype(e.field.dtype).newbyteorder("<"))
    a = ({"crc32": zlib.crc32(a.tobytes())} if drawn
         else base64.b64encode(a.tobytes()).decode("ascii"))
    doc = {"field": e.field.value, "p": e.p, "n": e.n, "seed": e.seed,
           "a": a, "b": e.observations.tolist()}
    for key, v in (("x_true", e.ground_truth), ("eps", e.noise_record)):
        if v is not None:
            pairs = np.iscomplexobj(v)
            doc[key] = (np.column_stack([v.real, v.imag]) if pairs else v).tolist()
    return json.dumps(doc)


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
@pytest.mark.parametrize("optional", [(), ("ground_truth",), ("noise_record",),
                                      ("ground_truth", "noise_record")],
                         ids=["both", "no-x_true", "no-eps", "neither"])
def test_serialize_is_json_dumps_of_the_document(field, optional):
    e = synthesize_instance(16, 3, 64, field, NoiseSpec("type1", 0.1), 5)
    e = dataclasses.replace(e, **dict.fromkeys(optional))
    assert serialize_instance(e) == _dumped(e, drawn=True)
    e = _nudged(e)  # not its seed's draw: the base64 form
    assert serialize_instance(e) == _dumped(e)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_json_refuses_a_non_finite_number_and_leaves_no_file(tmp_path, value):
    path = tmp_path / "doc.json"
    doc = {"ok": 1.5, "nested": {"bad": [0.0, np.float64(value)]}}
    for render in (render_json, lambda d: render_json(d, indented=True),
                   lambda d: write_json(path, d)):
        with pytest.raises(ValueError, match="not JSON compliant"):
            render(doc)
    assert list(tmp_path.iterdir()) == []


def _peak(f, arg):
    tracemalloc.start()
    try:
        out = f(arg)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_instance_io_holds_one_payload_copy(field):
    # the base64 form: measured 2.8 and 2.4 times the matrix bytes; 4.2-4.3
    # and 3.7 when the matrix went through tobytes, json.dumps' escape scan
    # and an ASCII copy
    e = _nudged(synthesize_instance(128, 12, 768, field, NoiseSpec("type2", 0.1), 3))
    size = e.sampling_vectors.nbytes
    written, text = _peak(serialize_instance, e)
    assert '"a": "' in text
    assert written <= 3.0 * size
    read, back = _peak(deserialize_instance, text)
    assert read <= 2.6 * size
    assert _bits(back.sampling_vectors) == _bits(e.sampling_vectors)


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_drawn_instance_io_holds_about_one_matrix(field):
    # measured 1.24 and 1.21 times the matrix bytes in the real field, 1.56
    # and 1.54 in the complex one (the draw's real and imaginary halves)
    e = synthesize_instance(128, 12, 768, field, NoiseSpec("type2", 0.1), 3)
    size = e.sampling_vectors.nbytes
    written, text = _peak(serialize_instance, e)
    assert '"a": {"crc32": ' in text
    assert written <= 1.7 * size
    read, back = _peak(deserialize_instance, text)
    assert read <= 1.7 * size
    assert _bits(back.sampling_vectors) == _bits(e.sampling_vectors)


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_drawn_roundtrip_is_bit_identical(field):
    e = synthesize_instance(16, 3, 64, field, NoiseSpec("type1", 0.1), 9)
    text = serialize_instance(e)
    assert set(json.loads(text)["a"]) == {"crc32"}
    back = deserialize_instance(text)
    for name in ("sampling_vectors", "observations", "ground_truth", "noise_record"):
        assert _bits(getattr(back, name)) == _bits(getattr(e, name)), name
    assert serialize_instance(back) == text


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_an_undrawn_matrix_keeps_the_base64_form(field):
    # one entry one ulp off its seed's draw, with no truth or noise record
    e = synthesize_instance(16, 3, 64, field, NoiseSpec("none"), 9)
    e = _nudged(MeasurementEnsemble(e.sampling_vectors, e.observations, seed=e.seed))
    text = serialize_instance(e)
    assert isinstance(json.loads(text)["a"], str)
    back = deserialize_instance(text)
    assert _bits(back.sampling_vectors) == _bits(e.sampling_vectors)
    assert serialize_instance(back) == text


TAMPERED = {
    "crc": lambda doc: {"a": {"crc32": doc["a"]["crc32"] ^ 1}},
    "seed": lambda doc: {"seed": doc["seed"] + 1},
    "n": lambda doc: {"n": doc["n"] + 1, "b": doc["b"] + [0.0]},
    "p": lambda doc: {"p": doc["p"] + 1},
    "extra-key": lambda doc: {"a": {**doc["a"], "sha256": ""}},
    "no-key": lambda doc: {"a": {}},
    "bool": lambda doc: {"a": {"crc32": True}},
    "float": lambda doc: {"a": {"crc32": float(doc["a"]["crc32"])}},
    "string": lambda doc: {"a": {"crc32": str(doc["a"]["crc32"])}},
    "negative": lambda doc: {"a": {"crc32": -1}},
    "2^32": lambda doc: {"a": {"crc32": 1 << 32}},
    "2^32+crc": lambda doc: {"a": {"crc32": (1 << 32) + doc["a"]["crc32"]}},
}


@pytest.mark.parametrize("change", TAMPERED)
@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_a_tampered_drawn_matrix_is_a_parse_error(field, change):
    e = synthesize_instance(8, 2, 24, field, NoiseSpec("none"), 4)
    doc = json.loads(serialize_instance(e))
    with pytest.raises(ParseError, match="^malformed field: a$"):
        deserialize_instance(json.dumps({**doc, **TAMPERED[change](doc)}))


def _with(doc, **fields):
    return json.dumps({**doc, **fields})


@pytest.mark.parametrize("bad", [
    "!!!!", "AAAA AAAA", "AAAAAAAA8D8", "AAAAAAAA8D8=", "é", {"x": 1}, 3, 2.5,
    None, True,
], ids=["bad-chars", "space", "bad-padding", "wrong-count", "non-ascii",
        "dict", "int", "float", "null", "bool"])
def test_bad_matrix_encoding_is_a_parse_error(bad):
    e = synthesize_instance(2, 1, 3, FieldTag.REAL, NoiseSpec("none"), 0)
    doc = json.loads(serialize_instance(e))
    with pytest.raises(ParseError, match="malformed field: a$"):
        deserialize_instance(_with(doc, a=bad))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_bytes_are_a_parse_error(value):
    e = synthesize_instance(2, 1, 3, FieldTag.REAL, NoiseSpec("none"), 0)
    doc = json.loads(serialize_instance(e))
    a = e.sampling_vectors.copy()
    a[1, 0] = value
    raw = base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")
    with pytest.raises(ParseError, match="non-finite"):
        deserialize_instance(_with(doc, a=raw))


MALFORMED = [
    ({"a": 3}, "a"),
    ({"a": [[1.0, 2.0]] * 3}, "a"),
    ({"a": [0.0] * 6}, "a"),  # n*p scalars, the layout before base64
    ({"p": None}, "p"),
    ({"p": "x"}, "p"),
    ({"p": -1, "n": -1}, "p"),
    ({"p": 0}, "p"),
    ({"n": 0}, "n"),
    ({"p": 1.7}, "p"),
    ({"p": 2.0}, "p"),
    ({"p": True}, "p"),
    ({"n": False}, "n"),
    ({"seed": 1.5}, "seed"),
    ({"seed": "0"}, "seed"),
    ({"seed": None}, "seed"),
    ({"b": [1.0, 2.0]}, "b"),
    ({"b": [[1.0], [2.0], [3.0]]}, "b"),
    ({"b": ["1", "2", "3"]}, "b"),
    ({"b": [True, False, True]}, "b"),
    ({"b": [1.0, [2.0], 3.0]}, "b"),
    ({"b": {"0": 1.0}}, "b"),
    ({"x_true": [0.0]}, "x_true"),
    ({"x_true": [[0.0, 0.0], [0.0, 0.0]]}, "x_true"),
    ({"eps": [0.0] * 4}, "eps"),
    ({"field": "quaternion"}, "field"),
    ({"field": ["real"]}, "field"),
]


@pytest.mark.parametrize("fields, key", MALFORMED, ids=[
    ",".join(f"{k}={v!r}" for k, v in fields.items()) for fields, _ in MALFORMED])
def test_malformed_instance_fields_are_parse_errors(fields, key):
    e = synthesize_instance(2, 1, 3, FieldTag.REAL, NoiseSpec("none"), 0)
    doc = json.loads(serialize_instance(e))
    with pytest.raises(ParseError, match=f"malformed field: {key}$"):
        deserialize_instance(_with(doc, **fields))


@pytest.mark.parametrize("x_true", [[[0.0, 0.0, 0.0]] * 2, [0.0, 0.0], [[0.0]] * 2])
def test_complex_vector_needs_re_im_pairs(x_true):
    e = synthesize_instance(2, 1, 3, FieldTag.COMPLEX, NoiseSpec("none"), 0)
    doc = json.loads(serialize_instance(e))
    with pytest.raises(ParseError, match="malformed field: x_true$"):
        deserialize_instance(_with(doc, x_true=x_true))


def test_complex_pairs_decode_bitwise_like_complex_of_each_pair():
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308]
    pairs = rng.standard_normal((500, 2)) * 10.0 ** rng.integers(-300, 300, (500, 1))
    pairs = pairs.tolist() + [[re, im] for re in special for im in special]
    old = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    new = decode_vector(pairs, FieldTag.COMPLEX, "x", len(pairs))
    assert _bits(new) == _bits(old)
    assert decode_vector([[1, 2]], FieldTag.COMPLEX, "x", 1).tolist() == [1 + 2j]


def test_ensemble_rejects_inconsistent_observations():
    e = synthesize_instance(4, 2, 8, FieldTag.REAL, NoiseSpec("none"), 3)
    doc = json.loads(serialize_instance(e))
    doc["b"] = [v + 1.0 for v in doc["b"]]
    with pytest.raises(ParseError):
        deserialize_instance(json.dumps(doc))


@pytest.mark.parametrize("a, b, eps, message", [
    (np.zeros(3), np.zeros(3), None,
     "sampling_vectors must be a nonempty (n, p) array"),
    (np.zeros((0, 3)), np.zeros(0), None,
     "sampling_vectors must be a nonempty (n, p) array"),
    (np.zeros((3, 0)), np.zeros(3), None,
     "sampling_vectors must be a nonempty (n, p) array"),
    (np.zeros((3, 2)), np.zeros(2), None,
     "observations must have one entry per sampling vector"),
    (np.zeros((3, 2)), np.zeros(3), np.zeros(2),
     "noise_record length must match observations"),
], ids=["one-dimensional", "no-rows", "no-columns", "short-observations",
        "short-noise-record"])
def test_ensemble_refuses_mismatched_shapes(a, b, eps, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MeasurementEnsemble(a, b, noise_record=eps)


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_nonzero_truth_is_the_truth_unless_absent_or_all_zero(field):
    e = synthesize_instance(4, 2, 8, field, NoiseSpec("none"), 3)
    assert e.nonzero_truth is e.ground_truth
    assert dataclasses.replace(e, ground_truth=None).nonzero_truth is None
    zero = dataclasses.replace(e, ground_truth=np.zeros_like(e.ground_truth),
                               noise_record=None)
    assert zero.nonzero_truth is None
    with pytest.raises(AttributeError):
        e.nonzero_truth = e.ground_truth


def test_field_mismatch_rejected():
    e = synthesize_instance(4, 2, 8, FieldTag.REAL, NoiseSpec("none"), 3)
    with pytest.raises(ValueError, match="field"):
        e.check_signal(np.zeros(4, dtype=np.complex128))
    with pytest.raises(ValueError, match="length"):
        e.check_signal(np.zeros(5))


def test_the_matrix_gives_the_field():
    e = synthesize_instance(4, 2, 8, FieldTag.COMPLEX, NoiseSpec("none"), 3)
    with pytest.raises(TypeError):
        MeasurementEnsemble(FieldTag.COMPLEX, e.sampling_vectors, e.observations)
    assert MeasurementEnsemble(e.sampling_vectors, e.observations).field \
        is FieldTag.COMPLEX
    integer = MeasurementEnsemble(np.ones((3, 2), dtype=np.int64), np.ones(3))
    assert integer.field is FieldTag.REAL
    assert integer.sampling_vectors.dtype == np.float64


def test_a_complex_truth_on_a_real_matrix_is_refused_uncast():
    e = synthesize_instance(4, 2, 8, FieldTag.REAL, NoiseSpec("none"), 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="field"):
            MeasurementEnsemble(e.sampling_vectors, e.observations,
                                e.ground_truth.astype(np.complex128))
    assert caught == []


@pytest.mark.parametrize("key, value", [
    ("x_true", np.nan), ("x_true", np.inf), ("eps", np.nan), ("eps", -np.inf)])
@pytest.mark.parametrize("alone", [False, True], ids=["both", "alone"])
def test_non_finite_truth_or_noise_record_is_refused(key, value, alone):
    e = synthesize_instance(16, 2, 96, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
    doc = json.loads(serialize_instance(e))
    doc[key][1] = value
    if alone:  # the other array absent: no consistency check to trip
        del doc["eps" if key == "x_true" else "x_true"]
    message = ("^signal contains non-finite entries$" if key == "x_true"
               else "^ensemble contains non-finite entries$")
    with pytest.raises(ValueError, match=message):
        MeasurementEnsemble(e.sampling_vectors, e.observations,
                            doc.get("x_true"), doc.get("eps"))
    with pytest.raises(ParseError, match=message):
        deserialize_instance(json.dumps(doc))


def test_array_holding_types_compare_by_identity():
    pair = [synthesize_instance(16, 2, 96, FieldTag.REAL, NoiseSpec("type2", 0.1), 3)
            for _ in range(2)]
    results = [solve(e, spectral_init(e), SolverConfig(lam=1e-3)) for e in pair]
    images = [GrayImage(np.eye(3)) for _ in range(2)]
    for a, b in (pair, results, images):
        assert (a == b) is False and (a != b) is True
        assert a == a and len({a, b, a}) == 2


@pytest.mark.parametrize("n, p", [(1, 5), (320, 32), (768, 128)])
def test_correlate_equals_conjugate_matvec_bitwise(n, p):
    rng = np.random.default_rng(n + p)
    a_re = rng.standard_normal((n, p))
    a = a_re + 1j * rng.standard_normal((n, p))
    x_re = rng.standard_normal(p)
    x = x_re + 1j * rng.standard_normal(p)
    for rows, sig in ((a, x), (a, x_re), (a_re, x), (a_re, x_re), (a[0], x)):
        got = correlate(rows, sig)
        assert got.dtype == (rows.conj() @ sig).dtype
        assert np.array_equal(got, rows.conj() @ sig)
