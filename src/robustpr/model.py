"""Measurement model: signals, sampling ensembles, noise synthesis, file formats.

A signal is a plain 1-D numpy array; its dtype carries the scalar field
(float64 for the real field, complex128 for the complex field).  The
inner product between a sampling vector ``a`` and a signal ``x`` is
``a^H x`` (conjugation on the first argument) everywhere in this package,
and a measurement is ``b_i = |a_i^H x|^2 + eps_i``.
"""

from __future__ import annotations

import binascii
import csv
import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParseError
from .rng import TAG_NOISE, TAG_SAMPLING, TAG_SIGNAL, _check_seed, stream

NOISE_KINDS = ("none", "type1", "type2", "type3", "gaussian")


class FieldTag(Enum):
    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self):
        return np.float64 if self is FieldTag.REAL else np.complex128


def field_of(x: np.ndarray) -> FieldTag:
    return FieldTag.COMPLEX if np.iscomplexobj(x) else FieldTag.REAL


def correlate(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inner products <a_i, x> = a_i^H x for a stack of rows (or one vector).

    Computed as conj(a x^*): conjugating the length-p signal and the result
    avoids copying the (n, p) matrix, and ``conj`` of a real array is the
    array itself.
    """
    return (a @ x.conj()).conj()


def _squared_modulus(v: np.ndarray) -> np.ndarray:
    """|v|^2 entrywise, bit for bit ``np.abs(v) ** 2``: the package's one square
    of a correlation or a sampling-matrix entry, so F is 0 at a noiseless truth."""
    m = np.abs(v) if v.dtype.kind == "c" else v
    return m * m


@dataclass(frozen=True)
class NoiseSpec:
    """One of the corruption models with its intensity eta.

    kind:
      none     -- eps = 0
      type1    -- dense bounded: eps_i ~ U(0, eta*||x_true||^2)
      type2    -- Laplace: eps_i ~ Laplace(0, mu/sqrt(2)), mu = eta*sqrt(sum b_i^2/n)
      type3    -- outliers: with prob eta, b_i replaced by U(0, ||x_true||^2)
      gaussian -- eps_i = eta*||b||/sqrt(n) * w_i, w_i ~ N(0,1)
    """

    kind: str = "none"
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        object.__setattr__(self, "eta", _check_nonnegative(eta=self.eta))
        if self.kind == "type3" and self.eta > 1.0:
            raise ValueError(
                f"type3 eta is a probability and must be at most 1, got {self.eta!r}")

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        """Parse 'none' or 'kind:eta' (e.g. 'type2:0.1')."""
        if text == "none":
            return cls("none", 0.0)
        kind, _, eta = text.partition(":")
        try:
            value = float(eta)  # without a ':', eta is '', which float refuses
        except ValueError:
            raise ValueError(
                f"noise spec must look like 'kind:eta', got {text!r}") from None
        return cls(kind, value)

    def __str__(self):
        return self.kind if self.kind == "none" else f"{self.kind}:{self.eta:g}"


@dataclass(eq=False)
class MeasurementEnsemble:
    """Sampling vectors, observations and optional ground truth of one instance.

    A complex matrix makes a complex ensemble, any other a real (float64)
    one; the truth must be a signal of that field and size (``check_signal``).
    """

    sampling_vectors: np.ndarray  # (n, p), rows a_i
    observations: np.ndarray  # (n,), b_i
    ground_truth: np.ndarray | None = None
    noise_record: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        self.seed = _check_seed(seed=self.seed)
        a = np.asarray(self.sampling_vectors)
        a = a.astype(field_of(a).dtype, copy=False)
        b = np.asarray(self.observations, dtype=np.float64)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("sampling_vectors must be a nonempty (n, p) array")
        if b.shape != (a.shape[0],):
            raise ValueError("observations must have one entry per sampling vector")
        self.sampling_vectors = a
        self.observations = b
        arrays = [b, a]
        if self.ground_truth is not None:
            self.ground_truth = self.check_signal(self.ground_truth)
        if self.noise_record is not None:
            eps = np.asarray(self.noise_record, dtype=np.float64)
            if eps.shape != b.shape:
                raise ValueError("noise_record length must match observations")
            self.noise_record = eps
            arrays.append(eps)
        if not all(np.all(np.isfinite(v)) for v in arrays):
            raise ValueError("ensemble contains non-finite entries")
        if self.ground_truth is not None and self.noise_record is not None:
            # a truth that overflows the forward model makes the gap inf or
            # NaN, which the negated test refuses as it refuses a large gap
            with np.errstate(over="ignore", invalid="ignore"):
                clean = _squared_modulus(correlate(a, self.ground_truth))
                gap = np.max(np.abs(b - clean - self.noise_record))
            if not gap <= 1e-12 * (1.0 + np.max(b, initial=0.0)):
                raise ValueError(
                    "observations inconsistent with ground truth and noise record"
                )

    @property
    def nonzero_truth(self) -> np.ndarray | None:
        """The ground truth, or None when it is absent or all zero."""
        x = self.ground_truth
        return x if x is not None and np.any(x) else None

    @property
    def field(self) -> FieldTag:
        return field_of(self.sampling_vectors)

    @property
    def n(self) -> int:
        return self.sampling_vectors.shape[0]

    @property
    def p(self) -> int:
        return self.sampling_vectors.shape[1]

    def check_signal(self, x: np.ndarray) -> np.ndarray:
        """Validate a candidate signal: this ensemble's field and size, finite."""
        x = np.asarray(x)
        if field_of(x) is not self.field:
            raise ValueError(
                f"signal field {field_of(x).value} does not match ensemble "
                f"field {self.field.value}"
            )
        if x.shape != (self.p,):
            raise ValueError(f"signal length {x.shape} does not match p={self.p}")
        x = x.astype(self.field.dtype, copy=False)
        if not np.all(np.isfinite(x)):
            raise ValueError("signal contains non-finite entries")
        return x


def generate_signal(p: int, s: int, field: FieldTag, seed: int) -> np.ndarray:
    """Draw an s-sparse signal with standard normal nonzeros on a uniform support."""
    p, s = _check_count(p=p, s=s)
    if not s <= p:
        raise ValueError(f"sparsity s={s} must satisfy 1 <= s <= p={p}")
    rng = stream(seed, TAG_SIGNAL)
    support = rng.choice(p, size=s, replace=False)
    x = np.zeros(p, dtype=field.dtype)
    if field is FieldTag.REAL:
        x[support] = rng.standard_normal(s)
    else:
        # E|x_j|^2 = 1: real and imaginary parts each N(0, 1/2).
        x[support] = (rng.standard_normal(s) + 1j * rng.standard_normal(s)) / np.sqrt(2)
    return x


def generate_sampling(p: int, n: int, field: FieldTag, seed: int) -> np.ndarray:
    """Draw n sampling vectors with i.i.d. standard (complex) normal entries."""
    p, n = _check_count(p=p, n=n)
    rng = stream(seed, TAG_SAMPLING)
    if field is FieldTag.REAL:
        return rng.standard_normal((n, p))
    a = np.empty((n, p), dtype=np.complex128)
    a.real = rng.standard_normal((n, p))
    a.imag = rng.standard_normal((n, p))
    a /= np.sqrt(2)
    return a


def apply_noise(
    clean_b: np.ndarray, x_true: np.ndarray, spec: NoiseSpec, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt clean measurements per ``spec``; returns (b, eps) with b = clean + eps."""
    clean_b = np.asarray(clean_b, dtype=np.float64)
    n = clean_b.shape[0]
    eps = np.zeros(n)
    if spec.kind == "none" or spec.eta == 0.0:
        return clean_b.copy(), eps
    rng = stream(seed, TAG_NOISE)
    power = float(np.linalg.norm(x_true) ** 2)
    if spec.kind == "type1":
        mu = spec.eta * power
        eps = rng.uniform(0.0, mu, size=n)
    elif spec.kind == "type2":
        mu = spec.eta * np.sqrt(np.sum(clean_b**2) / n)
        eps = rng.laplace(0.0, mu / np.sqrt(2), size=n)
    elif spec.kind == "type3":
        flags = rng.random(n) < spec.eta
        replacement = rng.uniform(0.0, power, size=n)
        eps = np.where(flags, replacement - clean_b, 0.0)
    elif spec.kind == "gaussian":
        scale = spec.eta * np.linalg.norm(clean_b) / np.sqrt(n)
        eps = scale * rng.standard_normal(n)
    return clean_b + eps, eps


def measure(
    x_true: np.ndarray, n: int, spec: NoiseSpec, seed: int
) -> MeasurementEnsemble:
    """Sample n measurements of a known signal and corrupt them per ``spec``."""
    a = generate_sampling(x_true.shape[0], n, field_of(x_true), seed)
    clean_b = _squared_modulus(correlate(a, x_true))
    b, eps = apply_noise(clean_b, x_true, spec, seed)
    return MeasurementEnsemble(a, b, ground_truth=x_true, noise_record=eps, seed=seed)


def synthesize_instance(
    p: int, s: int, n: int, field: FieldTag, spec: NoiseSpec, seed: int
) -> MeasurementEnsemble:
    """Generate signal, sampling vectors and corrupted measurements from one seed."""
    return measure(generate_signal(p, s, field, seed), n, spec, seed)


def encode_vector(arr: np.ndarray):
    if np.iscomplexobj(arr):
        return [[float(v.real), float(v.imag)] for v in arr.ravel()]
    return [float(v) for v in arr.ravel()]


def decode_vector(data, field: FieldTag, key: str, size: int) -> np.ndarray:
    """Inverse of ``encode_vector``; ParseError naming ``key`` unless the data
    is a list of ``size`` JSON numbers (``[re, im]`` pairs for a complex field).
    """
    try:
        arr = np.asarray(data)
    except ValueError as exc:  # ragged nesting
        raise ParseError(f"malformed field: {key}") from exc
    shape = (size, 2) if field is FieldTag.COMPLEX else (size,)
    if arr.dtype.kind not in "iuf" or arr.shape != shape:
        raise ParseError(f"malformed field: {key}")
    arr = arr.astype(np.float64, copy=False)
    return arr.view(np.complex128).ravel() if field is FieldTag.COMPLEX else arr


def _wire_dtype(field: FieldTag) -> np.dtype:
    """Byte layout of the encoded matrix: little-endian float64 or complex128."""
    return np.dtype(field.dtype).newbyteorder("<")


def encode_matrix(a: np.ndarray, field: FieldTag) -> str:
    """Base64 of the row-major little-endian bytes of ``a``, encoded from the
    array's own buffer (no bytes copy when ``a`` is already in wire layout)."""
    wire = np.ascontiguousarray(a, dtype=_wire_dtype(field))
    return binascii.b2a_base64(wire, newline=False).decode("ascii")


def _drawn_matrix(p: int, n: int, field: FieldTag, seed: int) -> np.ndarray:
    """The seed's sampling draw in wire layout (no copy on a little-endian host)."""
    return np.ascontiguousarray(generate_sampling(p, n, field, seed),
                                dtype=_wire_dtype(field))


def _draw_checksum(e: MeasurementEnsemble) -> int | None:
    """CRC-32 of the wire bytes of ``e``'s matrix if it is, bit for bit, the
    draw of its seed; None for any other matrix."""
    drawn = _drawn_matrix(e.p, e.n, e.field, e.seed)
    a = np.ascontiguousarray(e.sampling_vectors, dtype=drawn.dtype)
    # compared as 64-bit words: bit for bit, and a mask 1/8 of the matrix
    if not np.array_equal(a.view(np.uint64), drawn.view(np.uint64)):
        return None
    return binascii.crc32(drawn)


def decode_matrix(data, field: FieldTag, n: int, p: int, seed: int) -> np.ndarray:
    """Inverse of ``serialize_instance``'s ``a``; ParseError naming ``a``
    unless ``data`` is the base64 text of exactly n*p entries, or exactly
    ``{"crc32": c}`` with c the CRC-32 of the wire bytes of the seed's draw.

    The base64 text is decoded with ``b64decode(validate=True)``'s strictness
    but without its ASCII copy, and dropped before the native copy is made:
    a caller that hands over its only reference holds one payload at a time.
    """
    if isinstance(data, dict):
        crc = data["crc32"] if data.keys() == {"crc32"} else None
        if not _is_int(crc):
            raise ParseError("malformed field: a")
        drawn = _drawn_matrix(p, n, field, seed)
        # a CRC-32 is in [0, 2^32): a value outside it never matches
        if binascii.crc32(drawn) != crc:
            raise ParseError("malformed field: a")
        return drawn.astype(field.dtype, copy=False)
    if not isinstance(data, str):
        raise ParseError("malformed field: a")
    wire = _wire_dtype(field)
    try:
        raw = binascii.a2b_base64(data, strict_mode=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ParseError("malformed field: a") from exc
    del data
    if len(raw) != n * p * wire.itemsize:
        raise ParseError("malformed field: a")
    return np.frombuffer(raw, wire).astype(field.dtype).reshape(n, p)


def _is_int(value) -> bool:
    """Whether value is an integer (NumPy's too) and not a bool: every count's test."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_float(value) -> float:
    """Every parameter's conversion: a real number (NumPy's too) as a Python
    float; NaN, which every bound refuses, for a bool, a non-number or an int
    past float's range."""
    real = (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))
    try:
        return float(value) if real else np.nan
    except OverflowError:
        return np.nan


def _check_positive(**values: float):
    """Each of ``values`` as a Python float, one alone and several as a tuple;
    ValueError naming the first that is not finite and positive."""
    checked = []
    for name, value in values.items():
        # the test reads the float, so a NumPy scalar meets the bound as stored
        if not 0.0 < (number := _as_float(value)) < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
        checked.append(number)
    return checked[0] if len(checked) == 1 else tuple(checked)


def _check_nonnegative(**values: float):
    """Each of ``values`` as a Python float, one alone and several as a tuple;
    ValueError naming the first that is not finite and nonnegative."""
    checked = []
    for name, value in values.items():
        if not 0.0 <= (number := _as_float(value)) < np.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        checked.append(number)
    return checked[0] if len(checked) == 1 else tuple(checked)


def _check_count(**values: int):
    """Each of ``values`` as a Python int, one alone and several as a tuple;
    ValueError naming the first that is not a positive integer."""
    checked = []
    for name, value in values.items():
        if not (_is_int(value) and value >= 1):
            raise ValueError(f"{name} must be a positive integer, got {value}")
        checked.append(int(value))
    return checked[0] if len(checked) == 1 else tuple(checked)


def _json_int(doc: dict, key: str, minimum: int | None = None) -> int:
    """A JSON integer (not a bool) at least ``minimum``, else ParseError."""
    value = doc[key]
    if not _is_int(value) or (minimum is not None and value < minimum):
        raise ParseError(f"malformed field: {key}")
    return value


def serialize_instance(e: MeasurementEnsemble) -> str:
    """Render an ensemble as a JSON document (lossless round-trip).

    The text is ``render_json`` of the document with the keys ``field, p, n,
    seed, a, b`` and then ``x_true`` and ``eps`` when present.  When the
    matrix is bit for bit ``generate_sampling(p, n, field, seed)``, ``a`` is
    ``{"crc32": c}``, c the CRC-32 of its little-endian bytes, and the
    reader draws it again; any other matrix is written as the base64 text of
    those bytes.  The text is joined from the dumped fields before and after
    ``a`` around the base64 matrix, which has no character JSON escapes: the
    same bytes, without an escape scan or a second copy of the payload.
    """
    rest = {"b": encode_vector(e.observations)}
    if e.ground_truth is not None:
        rest["x_true"] = encode_vector(e.ground_truth)
    if e.noise_record is not None:
        rest["eps"] = encode_vector(e.noise_record)
    head = render_json({"field": e.field.value, "p": e.p, "n": e.n, "seed": e.seed})
    tail = render_json(rest)
    crc = _draw_checksum(e)
    if crc is None:
        a = ('"', encode_matrix(e.sampling_vectors, e.field), '"')
    else:
        a = (render_json({"crc32": crc}),)
    return "".join((head[:-1], ', "a": ', *a, ", ", tail[1:]))


def parse_document(text: str, kind: str, keys: tuple[str, ...]) -> dict:
    """Parse a JSON object that holds every one of ``keys``; ParseError
    naming the ``kind`` of document, or the missing key, otherwise."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {kind} document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{kind} document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"missing field: {key}")
    return doc


def deserialize_instance(text: str) -> MeasurementEnsemble:
    """Parse a JSON instance document; raises ParseError naming the bad key.

    A drawn ``a`` (``{"crc32": c}``) is drawn from the header's ``(seed, p,
    n, field)`` and checked against c, so a NumPy whose normal stream differs
    from the writer's refuses the file (``malformed field: a``) instead of
    reading another matrix.
    """
    doc = parse_document(text, "instance", ("p", "n", "field", "seed", "a", "b"))
    try:
        field = FieldTag(doc["field"])
    except ValueError as exc:
        raise ParseError("malformed field: field") from exc
    p, n = _json_int(doc, "p", 1), _json_int(doc, "n", 1)
    seed = _json_int(doc, "seed")
    a = decode_matrix(doc.pop("a"), field, n, p, seed)
    b = decode_vector(doc["b"], FieldTag.REAL, "b", n)
    x_true = (
        decode_vector(doc["x_true"], field, "x_true", p) if "x_true" in doc else None
    )
    eps = decode_vector(doc["eps"], FieldTag.REAL, "eps", n) if "eps" in doc else None
    try:
        return MeasurementEnsemble(a, b, x_true, eps, seed)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def read_text(path, kind: str) -> str:
    """The UTF-8 text of a ``kind`` file (instance, solution, config), with
    universal newlines; ParseError naming the kind if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{kind} file is not UTF-8 text") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8, as it is: no newline translation on any platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def render_json(doc, indented: bool = False) -> str:
    """``doc`` as strict JSON, the package's one ``json.dumps``: compact or
    indented by two spaces; a ``NaN`` or an infinity in it raises ValueError."""
    return json.dumps(doc, indent=2 if indented else None, allow_nan=False)


def write_json(path, doc) -> None:
    """Write ``doc`` as strict JSON indented by two spaces, ending in LF.

    ``doc`` is rendered before the file is opened, so a ``NaN`` or an
    infinity raises ValueError and leaves no file."""
    write_text(path, render_json(doc, indented=True) + "\n")


def write_csv(path, header, rows) -> None:
    """Write a header row and then ``rows`` as UTF-8, each line ending in LF.

    csv writes a float, a NumPy float64 too, as ``repr(float(x))``, so a
    cell reads back to the same bits.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
