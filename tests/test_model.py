import base64
import dataclasses
import json
import math
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
from robustpr.model import (
    PEAK,
    _check_count,
    _check_nonnegative,
    _check_positive,
    correlate,
    decode_vector,
    render_json,
    write_json,
)
from robustpr.rng import _check_seed

from test_library_refusals import beyond_memory, library_refusal_tests


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


def test_generate_sampling_real_variance():
    a = generate_sampling(p=128, n=256, field=FieldTag.REAL, seed=1)
    assert a.shape == (256, 128)
    assert abs(np.var(a) - 1.0) < 0.1


def test_generate_sampling_smallest_instance():
    a = generate_sampling(p=1, n=1, field=FieldTag.REAL, seed=0)
    assert a.shape == (1, 1) and np.isfinite(a[0, 0])


def test_each_rule_hands_back_the_python_scalar_it_accepts():
    # one value alone, several as a tuple, each the Python number it equals
    got = [_check_positive(lam=np.float32(1e-3)), _check_positive(a=2, b=np.float16(0.5)),
           _check_nonnegative(eta=np.int64(0)), _check_count(p=np.uint16(16), n=3),
           _check_seed(seed=np.int64(-3))]
    want = [float(np.float32(1e-3)), (2.0, 0.5), 0.0, (16, 3), -3]
    assert got == want
    assert [type(v) for v in got] == [float, tuple, float, tuple, int]
    assert [type(v) for pair in (got[1], got[3]) for v in pair] == [float] * 2 + [int] * 2


def test_generators_take_numpy_integer_counts():
    # any non-bool integer is a count: a NumPy one gives the same draws
    x = generate_signal(np.int64(8), np.int32(2), FieldTag.REAL, 1)
    np.testing.assert_array_equal(x, generate_signal(8, 2, FieldTag.REAL, 1))
    a = generate_sampling(np.int64(8), np.uint16(16), FieldTag.COMPLEX, 1)
    np.testing.assert_array_equal(a, generate_sampling(8, 16, FieldTag.COMPLEX, 1))


def test_the_size_rule_holds_to_the_byte(physical_memory):
    # a draw fits while PEAK times its bytes is at most the physical memory;
    # one byte less refuses it before anything the size of the matrix exists
    p, n, field = 64, 384, FieldTag.COMPLEX
    size = n * p * 16
    drawn = generate_sampling(p, n, field, 3)
    physical_memory(math.ceil(PEAK * size))
    np.testing.assert_array_equal(generate_sampling(p, n, field, 3), drawn)
    physical_memory(math.ceil(PEAK * size) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            generate_sampling(p, n, field, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == beyond_memory(n, p, field, math.ceil(PEAK * size) - 1)
    assert peak < size / 8


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


def test_noise_spec_refuses_a_bool_and_stores_a_python_float():
    # a bool eta once printed as type1:1
    for bad in (True, np.True_):
        with pytest.raises(ValueError,
                           match="^eta must be finite and nonnegative, got True$"):
            NoiseSpec("type1", bad)
    spec = NoiseSpec("type1", np.float32(0.5))
    assert type(spec.eta) is float and spec == NoiseSpec("type1", 0.5)
    assert type(NoiseSpec("type3", 1).eta) is float


def test_noise_spec_parse_roundtrip():
    spec = NoiseSpec.parse("type2:0.1")
    assert spec.kind == "type2" and spec.eta == 0.1
    assert str(spec) == "type2:0.1"


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


def test_serialize_roundtrip_minimal():
    e = synthesize_instance(1, 1, 1, FieldTag.REAL, NoiseSpec("none"), 0)
    back = deserialize_instance(serialize_instance(e))
    assert back.n == 1 and back.p == 1


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


def test_complex_pairs_decode_bitwise_like_complex_of_each_pair():
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308]
    pairs = rng.standard_normal((500, 2)) * 10.0 ** rng.integers(-300, 300, (500, 1))
    pairs = pairs.tolist() + [[re, im] for re in special for im in special]
    old = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    new = decode_vector(pairs, FieldTag.COMPLEX, "x", len(pairs))
    assert _bits(new) == _bits(old)
    assert decode_vector([[1, 2]], FieldTag.COMPLEX, "x", 1).tolist() == [1 + 2j]


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


globals().update(library_refusal_tests("test_model"))
