"""Every refusal of the library, as one row of ``LIBRARY_REFUSALS``.

A row is (test id, call, exception class, message): its call must raise
exactly that class, not a subclass, with exactly that message.  A test id is
``<module>::<test name>`` with an optional ``[<case>]``, and the test module
it names builds its tests from the rows filed under it with
``library_refusal_tests``: one test per name, parametrized by the case ids,
each of which checks all its rows at once.  So a refusal test keeps the id it
had as a hand-written test, and a refusal first tested here is a case of that
module's ``test_refusal``.  The inputs are built once, at import; no call
solves.  ``tests/test_cli.py`` holds the command line's table, ``REFUSALS``,
built by the same ``refusal_tests``, and the guard that finds every refusal
message built in ``src/`` in a row of one table or the other.
"""

import base64
import importlib
import json
import os
import tempfile
from dataclasses import replace
from functools import partial as call
from pathlib import Path

import numpy as np
import pytest

from robustpr import (
    ExperimentSpec,
    FieldTag,
    GrayImage,
    NoiseSpec,
    SolverConfig,
    deserialize_instance,
    error_vs_iteration,
    estimate_stability,
    fixed_point_residual,
    g,
    generate_sampling,
    generate_signal,
    half_threshold,
    lambda_grid_search,
    linear_rate_certificate,
    loss,
    objective,
    read_pgm,
    relative_error,
    remark5_quantities,
    serialize_instance,
    solve,
    spectral_init,
    synthesize_instance,
    threshold_point,
)
from robustpr.diagnostics import RHO0
from robustpr.errors import DomainError, ParseError
from robustpr.metrics import align
from robustpr.model import (
    NOISE_KINDS,
    PEAK,
    MeasurementEnsemble,
    _check_count,
    _check_nonnegative,
    _check_positive,
)
from robustpr.rng import _check_seed

from oracles import chi, realify_gradient, surrogate

ALPHA = 1.345
REAL, COMPLEX = FieldTag.REAL, FieldTag.COMPLEX
FIELDS = [REAL, COMPLEX]
NONE = NoiseSpec("none")
BAD_PARAMETERS = [0.0, -1.0, float("nan"), float("inf")]
NON_FINITE = [np.nan, np.inf, -np.inf]


def refusal_tests(rows, check):
    """The tests of a refusal table: for each test name among the ids of
    ``rows`` (each ``(test id, *row)``), one test that runs ``check(rows,
    request)`` on the rows filed under it, parametrized by the case ids, or
    with no parameter when its one case has no id."""
    cases = {}
    for test_id, *row in rows:
        name, _, case = test_id.partition("[")
        cases.setdefault(name, {}).setdefault(case[:-1] or None, []).append(row)

    def test_of(by_case):
        if list(by_case) == [None]:
            def test(request, rows=by_case[None]):
                check(rows, request)
            return test

        @pytest.mark.parametrize("rows", list(by_case.values()), ids=list(by_case))
        def test(request, rows):
            check(rows, request)
        return test

    return {name: test_of(by_case) for name, by_case in cases.items()}


def refuse(rows):
    """Call each (call, class, message) row, then check every row at once, so
    that one wrong row hides none after it."""
    wrong = []
    for k, (refused, cls, message) in enumerate(rows):
        try:
            refused()
            got = "no exception"
        except Exception as exc:
            got = (type(exc), str(exc))
        if got != (cls, message):
            name = getattr(refused, "func", refused).__qualname__
            wrong.append(f"row {k}, {name}: {got} != {(cls, message)}")
    assert not wrong, "\n".join(wrong)


def library_refusal_tests(module):
    """The refusal tests of the test module named ``module``."""
    return refusal_tests([(test_id.partition("::")[2], *row)
                          for test_id, *row in LIBRARY_REFUSALS
                          if test_id.partition("::")[0] == module],
                         lambda rows, request: refuse(rows))


def desk_spec(**overrides):
    base = dict(p=16, s=2, n_grid=(160,), noise=NONE, trials=1,
                solver=SolverConfig(lam=1e-4), master_seed=42, field=REAL)
    return ExperimentSpec(**{**base, **overrides})


def real_as_complex(e):
    return MeasurementEnsemble(
        sampling_vectors=e.sampling_vectors.astype(np.complex128),
        observations=e.observations,
        ground_truth=e.ground_truth.astype(np.complex128),
        noise_record=e.noise_record,
        seed=e.seed,
    )


def with_entry(x, i, value):
    """A copy of the array or list ``x`` with entry ``i`` set to ``value``."""
    x = x.copy()
    x[i] = value
    return x


def one_entry(field, value):
    return with_entry(np.zeros(16, dtype=field.dtype), 3, value)


def with_fields(doc, **fields):
    return json.dumps({**doc, **fields})


def read_pgm_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in.pgm")
        path.write_bytes(data)
        return read_pgm(path)


def base64_matrix(a):
    return base64.b64encode(a.tobytes()).decode("ascii")


def non_finite_record(key, value, alone):
    """The real ``NOISY`` instance's document with entry 1 of ``key`` set to
    ``value``, and without the other array when ``alone``."""
    doc = {**NOISY_DOC, key: with_entry(NOISY_DOC[key], 1, value)}
    if alone:  # the other array absent: no consistency check to trip
        del doc["eps" if key == "x_true" else "x_true"]
    return doc


def bare(e):
    """``e`` without its ground truth and noise record."""
    return MeasurementEnsemble(e.sampling_vectors, e.observations)


NON_FINITE_SIGNAL = "signal contains non-finite entries"


def field_mismatch(signal, ensemble):
    return f"signal field {signal} does not match ensemble field {ensemble}"


def positive(name, value):
    return f"{name} must be finite and positive, got {value}"


def rho0_outside(value):
    return f"rho0 must lie in (0, 1), got {value}"


def count(name, value):
    return f"{name} must be a positive integer, got {value}"


MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def beyond_memory(n, p, field, memory=MEMORY):
    """The size rule's refusal of an n x p ``field`` sampling matrix on a
    machine with ``memory`` bytes of physical memory."""
    size, gib = n * p * np.dtype(field.dtype).itemsize, 2.0**30
    return (f"a {n} x {p} {field.value} sampling matrix ({size / gib:.3g} GiB) would "
            f"peak near {PEAK * size / gib:.3g} GiB, above the {memory / gib:.3g} GiB "
            "of physical memory")


# the inputs, each built once
TINY = synthesize_instance(2, 1, 3, REAL, NONE, 0)
TINY_DOC = json.loads(serialize_instance(TINY))
TINY_A = TINY.sampling_vectors.astype("<f8")
TINY_COMPLEX_DOC = json.loads(serialize_instance(
    synthesize_instance(2, 1, 3, COMPLEX, NONE, 0)))
DRAWN_DOCS = {field: json.loads(serialize_instance(
    synthesize_instance(8, 2, 24, field, NONE, 4))) for field in FIELDS}
NOISY = {field: synthesize_instance(16, 2, 96, field, NoiseSpec("type2", 0.1), 3)
         for field in FIELDS}
NOISY_DOC = json.loads(serialize_instance(NOISY[REAL]))
THEORY = synthesize_instance(8, 2, 80, REAL, NoiseSpec("type2", 0.1), 3)
SMALL = {seed: synthesize_instance(4, 1, 8, REAL, NONE, seed) for seed in (1, 2)}
SMALL_COMPLEX = {seed: synthesize_instance(4, 1, 8, COMPLEX, NONE, seed) for seed in (1, 6)}
CONVERGED = synthesize_instance(16, 2, 320, REAL, NONE, 21)
ESTIMATE = solve(CONVERGED, spectral_init(CONVERGED), SolverConfig(lam=1e-4)).estimate
REPORT = linear_rate_certificate(ESTIMATE, CONVERGED, lam=1e-4, alpha=ALPHA)
SIGNAL = synthesize_instance(8, 2, 40, REAL, NONE, 1)
EASY = synthesize_instance(16, 2, 160, REAL, NONE, 9)
GRID = synthesize_instance(8, 2, 32, REAL, NONE, 14)
SAMPLING = generate_sampling(4, 8, REAL, 0)

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
BAD_ENCODINGS = {
    "bad-chars": "!!!!", "space": "AAAA AAAA", "bad-padding": "AAAAAAAA8D8",
    "wrong-count": "AAAAAAAA8D8=", "non-ascii": "é", "dict": {"x": 1}, "int": 3,
    "float": 2.5, "null": None, "bool": True,
}


LIBRARY_REFUSALS = [
    # ---- model: the parameter rules, signals, noise specs and ensembles
    *[("test_model::test_generate_signal_invalid_arguments", call(generate_signal, *args),
       ValueError, message) for args, message in [
           ((4, 5, REAL, 0), "sparsity s=5 must satisfy 1 <= s <= p=4"),
           ((0, 0, REAL, 0), count("p", 0)),
           # the count rule, not NumPy's TypeError
           ((16, 2.0, REAL, 1), count("s", 2.0)),
           ((16, True, REAL, 1), count("s", True))]],
    *[(f"test_model::test_generate_sampling_refuses_an_empty_shape[{p}-{n}]",
       call(generate_sampling, p, n, REAL, 0), ValueError,
       count("p" if p == 0 else "n", 0)) for p, n in [(0, 4), (4, 0)]],
    # 2^62 entries: more bytes than a 64-bit address space holds
    ("test_model::test_refusal[sampling-beyond-memory]",
     call(generate_sampling, 2**31, 2**31, REAL, 0), ValueError,
     beyond_memory(2**31, 2**31, REAL)),
    *[(f"test_model::test_check_count_names_the_first_bad_count_and_its_value[{case}]",
       call(_check_count, p=3, n=value, s=0), ValueError, count("n", value))
      for case, value in [("0", 0), ("-3", -3), ("2.0", 2.0), ("2.5", 2.5), ("nan", np.nan),
                          ("True", True), ("value6", np.True_), ("2", "2"),
                          ("None", None)]],
    *[("test_model::test_every_rule_refuses_a_bool_and_a_non_number"
       f"[{case}-{rule.__name__}-{message}]", call(rule, v=value), ValueError,
       f"{message}, got {value}")
      for rule, message in [(_check_positive, "v must be finite and positive"),
                            (_check_nonnegative, "v must be finite and nonnegative"),
                            (_check_count, "v must be a positive integer"),
                            (_check_seed, "v must be an integer")]
      for case, value in [("True", True), ("value1", np.True_), ("1", "1"),
                          ("None", None), ("1j", 1j), ("value5", np.array([1.0]))]],
    ("test_model::test_noise_spec_rejects_negative_eta", call(NoiseSpec, "type1", -0.5),
     ValueError, "eta must be finite and nonnegative, got -0.5"),
    ("test_model::test_noise_spec_rejects_negative_eta", call(NoiseSpec, "type3", 1.5),
     ValueError, "type3 eta is a probability and must be at most 1, got 1.5"),
    *[(f"test_model::test_noise_spec_parse_names_a_malformed_spec[{text}]",
       call(NoiseSpec.parse, text), ValueError,
       f"noise spec must look like 'kind:eta', got {text!r}")
      for text in ["type2:", "type2", "type2:abc", "1.5"]],
    ("test_model::test_refusal[noise-spec-unknown-kind]", call(NoiseSpec.parse, "bogus:1"),
     ValueError, "unknown noise kind: 'bogus'"),
    *[(f"test_model::test_noise_spec_rejects_non_finite_eta[{kind}-{case}]", refused,
       ValueError, f"eta must be finite and nonnegative, got {got}")
      for kind in NOISE_KINDS
      for case, eta, parsed in [("nan", np.nan, "nan"), ("inf", np.inf, "inf"),
                                ("-inf", -np.inf, "-inf"), ("10**400", 10**400, "inf")]
      for refused, got in [(call(NoiseSpec, kind, eta), eta),
                           (call(NoiseSpec.parse, f"{kind}:{eta}"), parsed)]],
    *[("test_model::test_a_seed_that_is_not_an_integer_is_refused_where_it_is_given"
       f"[{seed}]", refused, ValueError, f"seed must be an integer, got {seed}")
      for seed in [1.5, 2.0, True, "3", None]
      for refused in [call(MeasurementEnsemble, np.ones((3, 2)), np.ones(3), seed=seed),
                      call(generate_signal, 8, 2, REAL, seed)]],
    *[(f"test_model::test_ensemble_refuses_mismatched_shapes[{case}]",
       call(MeasurementEnsemble, a, b, noise_record=eps), ValueError, message)
      for case, a, b, eps, message in [
          ("one-dimensional", np.zeros(3), np.zeros(3), None,
           "sampling_vectors must be a nonempty (n, p) array"),
          ("no-rows", np.zeros((0, 3)), np.zeros(0), None,
           "sampling_vectors must be a nonempty (n, p) array"),
          ("no-columns", np.zeros((3, 0)), np.zeros(3), None,
           "sampling_vectors must be a nonempty (n, p) array"),
          ("short-observations", np.zeros((3, 2)), np.zeros(2), None,
           "observations must have one entry per sampling vector"),
          ("short-noise-record", np.zeros((3, 2)), np.zeros(3), np.zeros(2),
           "noise_record length must match observations")]],
    ("test_model::test_field_mismatch_rejected",
     call(SMALL[1].check_signal, np.zeros(4, dtype=np.complex128)), ValueError,
     field_mismatch("complex", "real")),
    ("test_model::test_field_mismatch_rejected", call(SMALL[1].check_signal, np.zeros(5)),
     ValueError, "signal length (5,) does not match p=4"),
    *[(f"test_model::test_non_finite_truth_or_noise_record_is_refused"
       f"[{'alone' if alone else 'both'}-{key}-{value}]", refused, cls,
       f"{'signal' if key == 'x_true' else 'ensemble'} contains non-finite entries")
      for key, value in [("x_true", np.nan), ("x_true", np.inf), ("eps", np.nan),
                         ("eps", -np.inf)]
      for alone in (False, True)
      for doc in [non_finite_record(key, value, alone)]
      for refused, cls in [
          (call(MeasurementEnsemble, NOISY[REAL].sampling_vectors,
                NOISY[REAL].observations, doc.get("x_true"), doc.get("eps")), ValueError),
          (call(deserialize_instance, json.dumps(doc)), ParseError)]],
    # ---- model: instance documents
    ("test_model::test_deserialize_empty_document", call(deserialize_instance, "{}"),
     ParseError, "missing field: p"),
    ("test_model::test_deserialize_malformed", call(deserialize_instance, "not json"),
     ParseError, "invalid JSON in instance document: Expecting value: "
     "line 1 column 1 (char 0)"),
    # a base64 matrix one character short, then one whole quantum (3 bytes) short
    *[("test_model::test_deserialize_malformed",
       call(deserialize_instance, with_fields(TINY_DOC, a=base64_matrix(TINY_A)[:-cut])),
       ParseError, "malformed field: a") for cut in (1, 4)],
    *[(f"test_model::test_a_tampered_drawn_matrix_is_a_parse_error[{field}-{change}]",
       call(deserialize_instance, json.dumps({**doc, **tamper(doc)})), ParseError,
       "malformed field: a")
      for field, doc in DRAWN_DOCS.items() for change, tamper in TAMPERED.items()],
    *[(f"test_model::test_bad_matrix_encoding_is_a_parse_error[{case}]",
       call(deserialize_instance, with_fields(TINY_DOC, a=bad)), ParseError,
       "malformed field: a") for case, bad in BAD_ENCODINGS.items()],
    *[(f"test_model::test_non_finite_matrix_bytes_are_a_parse_error[{value}]",
       call(deserialize_instance, with_fields(
           TINY_DOC, a=base64_matrix(with_entry(TINY_A, (1, 0), value)))),
       ParseError, "ensemble contains non-finite entries") for value in NON_FINITE],
    *[("test_model::test_malformed_instance_fields_are_parse_errors"
       f"[{','.join(f'{k}={v!r}' for k, v in fields.items())}]",
       call(deserialize_instance, with_fields(TINY_DOC, **fields)), ParseError,
       f"malformed field: {key}") for fields, key in MALFORMED],
    *[(f"test_model::test_complex_vector_needs_re_im_pairs[x_true{i}]",
       call(deserialize_instance, with_fields(TINY_COMPLEX_DOC, x_true=x_true)),
       ParseError, "malformed field: x_true")
      for i, x_true in enumerate([[[0.0, 0.0, 0.0]] * 2, [0.0, 0.0], [[0.0]] * 2])],
    *[("test_model::test_ensemble_rejects_inconsistent_observations", refused, cls,
       "observations inconsistent with ground truth and noise record")
      for e in [NOISY[REAL]] for refused, cls in [
          (call(MeasurementEnsemble, e.sampling_vectors, e.observations + 1.0,
                e.ground_truth, e.noise_record), ValueError),
          (call(deserialize_instance, with_fields(
              DRAWN_DOCS[REAL], b=[v + 1.0 for v in DRAWN_DOCS[REAL]["b"]])), ParseError)]],
    # ---- diagnostics
    ("test_diagnostics::test_stability_validation",
     call(estimate_stability, SMALL_COMPLEX[1]), DomainError,
     "stability estimation is defined for real ensembles only"),
    ("test_diagnostics::test_row_normalized_checks_refuse_a_zero_row",
     call(remark5_quantities, SMALL[1].ground_truth,
          MeasurementEnsemble(with_entry(SMALL[1].sampling_vectors, 2, 0.0),
                              SMALL[1].observations), ALPHA),
     ValueError, "sampling ensemble contains a zero row"),
    *[("test_diagnostics::test_certificate_rejects_non_finite_or_degenerate_solution"
       f"[{value}-{case}-{field}]",
       call(linear_rate_certificate, one_entry(field, value), NOISY[field], lam=1e-3,
            alpha=ALPHA), ValueError, message)
      for field in FIELDS for value, case, message in [
          *[(value, "solution has a non-finite entry", NON_FINITE_SIGNAL)
            for value in NON_FINITE],
          (1e-300, "solution's smallest nonzero entry is too small",
           "regularizer term overflows: the solution's smallest nonzero entry is too "
           "small for this lambda"),
          (1e200, "solution overflows the certificate's curvature terms",
           "solution overflows the certificate's curvature terms")]],
    ("test_diagnostics::test_certificate_rejects_an_overflowing_regularizer_term",
     call(linear_rate_certificate, ESTIMATE, CONVERGED, lam=1e308, alpha=ALPHA),
     ValueError, "regularizer term overflows: the solution's smallest nonzero entry is "
     "too small for this lambda"),
    *[("test_diagnostics::test_remark5_rejects_non_finite_or_degenerate_solution"
       f"[{value}-{case}]", call(remark5_quantities, one_entry(REAL, value), NOISY[REAL],
                                 ALPHA), ValueError, message)
      for value, case, message in [
          (np.inf, "solution has a non-finite entry", NON_FINITE_SIGNAL),
          (np.nan, "solution has a non-finite entry", NON_FINITE_SIGNAL),
          (1e200, "solution overflows the inlier quadratic term",
           "solution overflows the inlier quadratic term")]],
    ("test_diagnostics::test_certificate_validation",
     call(linear_rate_certificate, np.zeros(16), CONVERGED, lam=1e-4, alpha=ALPHA),
     DomainError, "solution has empty support"),
    *[("test_diagnostics::test_certificate_validation",
       call(linear_rate_certificate, ESTIMATE, CONVERGED, **{"lam": 1e-4, "alpha": ALPHA,
                                                            name: bad}),
       ValueError, positive(name, bad))
      for bad in BAD_PARAMETERS for name in ("lam", "alpha")],
    # one check and one whole message for each parameter in both modes
    *[(f"test_diagnostics::test_theory_checks_reject_bad_alpha_and_rho0[{case}]", refused,
       ValueError, message)
      for case, alpha, rho0, message in [
          *[(f"{case}-{RHO0}-alpha must be positive", bad, RHO0, positive("alpha", bad))
            for case, bad in [*[(str(bad), bad) for bad in BAD_PARAMETERS],
                              ("10**400", 10**400)]],
          *[(rf"{ALPHA}-{case}-rho0 must lie in \(0, 1\)", ALPHA, bad, rho0_outside(bad))
            for case, bad in [*[(str(bad), bad) for bad in (0.0, 1.0, -1.0, 1.5, np.nan)],
                              ("10**400", 10**400)]]]
      for refused in [call(remark5_quantities, THEORY.ground_truth, THEORY, alpha, rho0=rho0),
                      *[call(linear_rate_certificate, ens.ground_truth, ens, 1e-4, alpha,
                             rho0=rho0) for ens in (THEORY, real_as_complex(THEORY))]]],
    *[(f"test_diagnostics::test_theory_checks_refuse_a_bool_alpha_or_rho0[{name}]",
       refused, ValueError, message)
      for name, message in [("alpha", positive("alpha", True)),
                            ("rho0", rho0_outside(True))]
      for bad in (True, np.True_)
      for params in [{"alpha": ALPHA, "rho0": RHO0, name: bad}]
      for refused in [call(remark5_quantities, THEORY.ground_truth, THEORY, **params),
                      call(linear_rate_certificate, THEORY.ground_truth, THEORY, 1e-4,
                           **params)]],
    ("test_diagnostics::test_remark5_requires_real_and_noise_record",
     call(remark5_quantities, SMALL_COMPLEX[1].ground_truth, SMALL_COMPLEX[1], ALPHA),
     DomainError, "the Remark-5 check is defined for real ensembles only"),
    ("test_diagnostics::test_remark5_requires_real_and_noise_record",
     call(remark5_quantities, SMALL[1].ground_truth, bare(SMALL[1]), ALPHA),
     DomainError, "Remark-5 quantities require a noise record"),
    *[(f"test_diagnostics::test_a_report_with_a_non_finite_number_is_not_json[{value}]",
       replace(REPORT, lhs_min_eig=value).to_json, ValueError,
       "Out of range float values are not JSON compliant")
      for value in NON_FINITE],
    # ---- objective and gradient
    ("test_objective::test_loss_field_mismatch",
     call(loss, np.zeros(4, dtype=complex), SMALL[2], ALPHA), ValueError,
     field_mismatch("complex", "real")),
    ("test_objective::test_surrogate_rejects_bad_tau",
     call(surrogate, SMALL[2].ground_truth, SMALL[2].ground_truth, SMALL[2], 1e-3, ALPHA,
          tau=0.0), ValueError, "surrogate step tau must be positive and finite"),
    *[(f"test_objective::test_surrogate_rejects_nonpositive_or_nonfinite_tau[{tau}]",
       call(surrogate, SMALL[2].ground_truth, SMALL[2].ground_truth, SMALL[2], 1e-3,
            ALPHA, tau=tau), ValueError, "surrogate step tau must be positive and finite")
      for tau in BAD_PARAMETERS],
    *[("test_objective::test_params_validation", refused, ValueError, message)
      for bad in BAD_PARAMETERS for x in [SMALL[2].ground_truth]
      for refused, message in [
          (call(objective, x, SMALL[2], 1e-3, bad), positive("alpha", bad)),
          (call(objective, x, SMALL[2], bad, ALPHA), positive("lam", bad)),
          (call(surrogate, x, x, SMALL[2], 1e-3, bad, tau=1.0),
           "lam and alpha must be positive"),
          (call(surrogate, x, x, SMALL[2], bad, ALPHA, tau=1.0),
           "lam and alpha must be positive")]],
    *[(f"test_objective::test_evaluations_refuse_a_non_finite_signal[{bad}]", refused,
       ValueError, NON_FINITE_SIGNAL)
      for bad in NON_FINITE for x in [with_entry(SIGNAL.ground_truth, 0, bad)]
      for refused in [call(objective, x, SIGNAL, 1e-3, ALPHA), call(loss, x, SIGNAL, ALPHA),
                      call(g, x, SIGNAL, ALPHA),
                      call(fixed_point_residual, x, SIGNAL, 1e-3, ALPHA, tau=1.0)]],
    *[(f"test_objective::test_loss_and_g_reject_bad_alpha[{alpha}]", refused, ValueError,
       positive("alpha", alpha))
      for alpha in BAD_PARAMETERS for x in [SIGNAL.ground_truth]
      for refused in [call(loss, x, SIGNAL, alpha), call(g, x, SIGNAL, alpha),
                      call(fixed_point_residual, x, SIGNAL, 1e-3, alpha, tau=1.0)]],
    ("test_gradient::test_realify_gradient_rejects_real",
     call(realify_gradient, SMALL[2].ground_truth, SMALL[2], ALPHA), ValueError,
     "realify_gradient is defined for complex ensembles"),
    ("test_gradient::test_g_field_mismatch", call(g, np.zeros(4), SMALL_COMPLEX[6], ALPHA),
     ValueError, field_mismatch("real", "complex")),
    # ---- prox
    *[(f"test_prox::test_nonpositive_or_nonfinite_weight_is_rejected[{case}]", refused,
       ValueError, message)
      for case, mu in [(str(mu), mu) for mu in BAD_PARAMETERS] + [("10**400", 10**400)]
      for refused, message in [(call(threshold_point, mu), positive("mu", mu)),
                               (call(half_threshold, np.ones(3), mu), positive("mu", mu)),
                               (call(chi, 1.0, mu), positive("mu", mu))]],
    # ---- solver and spectral start
    *[(f"test_solver::test_fixed_point_residual_rejects_nonpositive_or_nonfinite_tau[{tau}]",
       call(fixed_point_residual, EASY.ground_truth, EASY, 1e-3, 1.345, tau), ValueError,
       positive("tau", tau)) for tau in BAD_PARAMETERS],
    *[(f"test_solver::test_fixed_point_residual_rejects_a_mismatched_x[{case}]",
       call(fixed_point_residual, x, NOISY[REAL], 1e-3, 1.345, 0.5), ValueError, message)
      for case, x, message in [
          ("short x", NOISY[REAL].ground_truth[:1], "signal length (1,) does not match p=16"),
          ("complex x", NOISY[REAL].ground_truth + 0j, field_mismatch("complex", "real"))]],
    ("test_solver::test_solver_config_validation", call(SolverConfig, lam=0.0), ValueError,
     positive("lam", 0.0)),
    *[("test_solver::test_solver_config_validation",
       call(SolverConfig, **{"lam": 1.0, name: bad}), ValueError, positive(name, bad))
      for bad in (float("nan"), float("inf"), 10**400) for name in ("lam", "alpha")],
    *[(f"test_solver::test_solver_config_refuses_a_bool[{name}]",
       call(SolverConfig, **{"lam": 1.0, name: bad}), ValueError, positive(name, True))
      for name in ("lam", "alpha") for bad in (True, np.True_)],
    ("test_solver::test_solve_rejects_bad_start",
     call(solve, EASY, np.full(16, np.nan), SolverConfig(lam=1e-4)), ValueError,
     NON_FINITE_SIGNAL),
    # mean b <= 0 leaves no scale sqrt(mean b): all-zero observations included
    *[(f"test_spectral::{name}", call(spectral_init, MeasurementEnsemble(SAMPLING, b)),
       DomainError, "mean observation is nonpositive; no spectral start")
      for name, b in [("test_zero_observations_have_no_spectral_start", np.zeros(8)),
                      ("test_nonpositive_mean_observation_has_no_spectral_start",
                       with_entry(np.zeros(8), 0, -1.0))]],
    # ---- metrics
    *[("test_metrics::test_relative_error_validation", call(relative_error, *args),
       ValueError, message) for args, message in [
           ((np.zeros(3), np.zeros(3)), "relative error is undefined for a zero ground truth"),
           ((np.zeros(3), np.zeros(4)), "estimate and truth must share field and length"),
           ((np.zeros(3, dtype=complex), np.zeros(3)),
            "estimate and truth must share field and length")]],
    *[("test_metrics::test_align_validation", call(align, *args), ValueError, message)
      for args, message in [
          ((np.zeros(3), np.zeros(3)), "relative error is undefined for a zero ground truth"),
          ((np.zeros(3), np.ones(4)), "estimate and truth must share field and length"),
          ((np.zeros(3, dtype=complex), np.ones(3)),
           "estimate and truth must share field and length")]],
    *[(f"test_metrics::test_experiment_spec_rejects_bad_success_threshold[{case}]",
       call(desk_spec, success_threshold=value), ValueError,
       positive("success_threshold", value))
      for case, value in [(str(v), v) for v in BAD_PARAMETERS] + [("10**400", 10**400)]],
    *[(f"test_metrics::test_experiment_spec_rejects_a_non_integer_trial_count[{trials}]",
       call(desk_spec, trials=trials), ValueError, count("trials", trials))
      for trials in [2.5, 3.0, np.nan, True, "3"]],
    # each was accepted once, and run_experiment tripped on it
    *[("test_metrics::test_experiment_spec_refuses_a_bad_count_or_seed_when_built"
       f"[{field}-{case}-{message}]", call(desk_spec, **{field: value}), ValueError,
       message) for field, case, value, message in [
           ("p", "16.0", 16.0, count("p", 16.0)),
           ("s", "True", True, count("s", True)),
           ("n_grid", "value2", (16.0,), count("n", 16.0)),
           ("n_grid", "value3", (0, 160), count("n", 0)),
           ("master_seed", "1.5", 1.5, "master_seed must be an integer, got 1.5"),
           ("master_seed", "value5", np.True_, "master_seed must be an integer, got True")]],
    *[("test_metrics::test_experiment_spec_validation", call(desk_spec, **{field: value}),
       ValueError, message) for field, value, message in [
           ("trials", 0, count("trials", 0)),
           ("n_grid", (), "n_grid must be nonempty and strictly ascending"),
           ("n_grid", (160, 64), "n_grid must be nonempty and strictly ascending"),
           ("n_grid", (32, 32), "n_grid must be nonempty and strictly ascending")]],
    ("test_metrics::test_error_vs_iteration_needs_truth",
     call(error_vs_iteration, bare(SIGNAL), SolverConfig(lam=1e-4)), DomainError,
     "error-vs-iteration needs a nonzero ground truth"),
    *[(f"test_metrics::test_refusal[lambda-grid-{case}]",
       call(lambda_grid_search, GRID, SolverConfig(lam=1.0), grid, rule), ValueError,
       message) for case, grid, rule, message in [
           ("empty", [], "oracle", "lambda grid must be nonempty and free of repeats"),
           ("repeats", [1e-3, 1e-4, 0.001], "oracle",
            "lambda grid must be nonempty and free of repeats"),
           ("unknown-rule", [1e-3], "bogus", "unknown validation rule: 'bogus'")]],
    # ---- pgm
    ("test_pgm::test_gray_image_validation", call(GrayImage, pixels=np.zeros((2, 0))),
     ValueError, "pixels must be a nonempty (height, width) array"),
    ("test_pgm::test_gray_image_validation", call(GrayImage, pixels=np.zeros(4)),
     ValueError, "pixels must be a nonempty (height, width) array"),
    *[(f"test_pgm::test_gray_image_refuses_non_finite_pixels[{bad}]",
       call(GrayImage, np.array([[bad, 0.5]])), ValueError,
       "pixels contain non-finite entries") for bad in NON_FINITE],
    # write_pgm would put a bad value in a header read_pgm rejects, and
    # wrap the pixels of maxval = 70000 mod 2**16
    ("test_pgm::test_refusal[maxval-70000]",
     call(GrayImage, np.array([[0.0, 1.0]]), maxval=70000), ValueError,
     "maxval must be an integer in 1..65535"),
    *[(f"test_pgm::test_rejects_bad_header[{case}]", call(read_pgm_bytes, data),
       ParseError, message) for case, data, message in [
           ("truncated", b"P2\n3 2\n", "truncated PGM header"),
           ("malformed", b"P5\n3 two\n255\n", "malformed PGM header"),
           ("out-of-range", b"P2\n3 2\n65536\n", "PGM header out of range"),
           ("underscore", b"P2\n1_0 1\n255\n" + b"0 " * 10, "malformed PGM header")]],
    ("test_pgm::test_rejects_non_pgm", call(read_pgm_bytes, b"P6\n2 2\n255\n" + bytes(12)),
     ParseError, "not a PGM image (magic b'P6', want P2 or P5)"),
    ("test_pgm::test_rejects_non_pgm", call(read_pgm_bytes, b""), ParseError,
     "empty file; not a PGM image"),
    ("test_pgm::test_rejects_truncated_raster",
     call(read_pgm_bytes, b"P5\n4 4\n255\n" + bytes(7)), ParseError,
     "truncated PGM raster"),
    ("test_pgm::test_rejects_truncated_raster",
     call(read_pgm_bytes, b"P2\n2 2\n255\n1 2 3\n"), ParseError, "expected 4 pixels, found 3"),
    *[(f"test_pgm::test_rejects_malformed_p2_raster_token[{token}]",
       call(read_pgm_bytes, b"P2\n2 1\n10\n5 " + token.encode() + b"\n"), ParseError,
       "malformed P2 raster value") for token in ["x", "2.5", "1_0", "+1", "-0"]],
    # a P2 value above maxval, one past int64, and a P5 byte above maxval
    *[("test_pgm::test_rejects_out_of_range_pixels", call(read_pgm_bytes, data), ParseError,
       "pixel value outside [0, maxval]")
      for data in [b"P2\n2 1\n10\n5 11\n", b"P2\n1 1\n255\n99999999999999999999\n",
                   b"P5\n1 1\n10\n\xff"]],
]


def test_every_row_runs_as_its_test():
    # a row filed under a test module that does not build its tests never runs
    missing = []
    for test_id in sorted({test_id.partition("[")[0] for test_id, *_ in LIBRARY_REFUSALS}):
        module, _, name = test_id.partition("::")
        test = getattr(importlib.import_module(module), name, None)
        if getattr(test, "__module__", None) != __name__:
            missing.append(test_id)
    assert missing == []
