"""Transport-agnostic JSON codec for the diagnosis serving layer.

One wire format, independent of the transport that carries it: the
stdlib HTTP front (:mod:`repro.runtime.server`) uses it, but so can a
message queue or a unix-socket RPC layer. Requests carry a circuit name
plus an ``(N, F)`` matrix of measured dB magnitudes at the circuit's
test vector; responses carry one answer dict per row, a hard diagnosis
or a posterior one depending on the diagnosis mode (:data:`MODES`).

Floats survive the round trip exactly: ``orjson`` writes every double in
a shortest form that parses back to the same bits, so
``decode_response(encode_response(d)) == d`` bitwise -- the property
the serving equivalence tests rely on. The spelling of a float may
differ from ``repr`` (``1e308``, not ``1e+308``); any JSON parser,
stdlib ``json`` included, reads it as the same double.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np
import orjson

from ..diagnosis.classifier import Diagnosis
from ..diagnosis.posterior import PosteriorDiagnosis
from ..errors import CodecError

__all__ = [
    "MODES",
    "DiagnoseRequest",
    "decode_request",
    "encode_request",
    "decode_request_many",
    "encode_request_many",
    "decode_requests",
    "decode_posterior_request",
    "decode_response",
    "encode_response",
    "decode_response_many",
    "encode_response_many",
    "decode_answers",
    "encode_answers",
    "diagnosis_to_dict",
    "diagnosis_from_dict",
    "decode_posterior_response",
    "encode_posterior_response",
    "posterior_to_dict",
    "posterior_from_dict",
    "encode_error",
    "encode_stats",
    "embed_trace",
]

Payload = Union[bytes, bytearray, str]

#: Diagnosis modes: the hard trajectory classifier or the posterior
#: (probabilistic) tier. Both answer the same signature points.
MODES = ("hard", "posterior")


#: numpy scalars and the int-keyed histograms of the stats snapshot.
_DUMPS_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_NON_STR_KEYS


def _loads(payload: Payload) -> object:
    # Invalid UTF-8 (or a str holding lone surrogates) is a decode
    # error too: "str is not valid UTF-8".
    try:
        return orjson.loads(payload)
    except orjson.JSONDecodeError as exc:
        raise CodecError(f"payload is not valid JSON: {exc}") from exc


def _dumps(obj: object) -> bytes:
    payload = orjson.dumps(obj, option=_DUMPS_OPTIONS)
    if b"null" in payload:
        # orjson writes NaN and infinities as null. Only then, let the
        # stdlib encoder find and reject them; a payload whose nulls
        # are all Nones passes and keeps orjson's bytes.
        try:
            json.dumps(obj, allow_nan=False)
        except ValueError as exc:
            raise CodecError(
                f"payload contains a non-finite float outside a "
                f"tokenised field: {exc}") from exc
    return payload


# Non-finite floats have no JSON literal. Fields that may legitimately
# carry them (margins, ranking distances) ride as explicit string
# tokens, so an infinite margin and a missing one are distinguishable
# on the wire. NaN is *rejected at encode time* -- a NaN margin is a
# bug upstream, and silently shipping it previously round-tripped into
# "infinitely confident" (null -> +inf). The decoder still accepts a
# "nan" token (and legacy null as +inf) from other producers.
_NONFINITE_TOKENS = {
    "inf": float("inf"),
    "+inf": float("inf"),
    "-inf": float("-inf"),
    "nan": float("nan"),
}


def _float_to_wire(value: float, field: str) -> Union[float, str]:
    value = float(value)
    if math.isfinite(value):
        return value
    if value != value:
        raise CodecError(
            f"{field} is NaN; refusing to encode (upstream bug)")
    return "inf" if value > 0.0 else "-inf"


def _float_from_wire(value: object, field: str) -> float:
    if type(value) is float:
        return value
    if value is None:
        # Legacy encoders shipped null for any non-finite value.
        return float("inf")
    if isinstance(value, str):
        try:
            return _NONFINITE_TOKENS[value.lower()]
        except KeyError:
            raise CodecError(
                f"{field} has unknown non-finite token {value!r}"
            ) from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CodecError(
            f"{field} must be a number or a non-finite token, got "
            f"{type(value).__name__}")
    return float(value)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiagnoseRequest:
    """A decoded diagnosis request: one circuit, N measured rows."""

    circuit: str
    magnitudes_db: np.ndarray    # (N, F) float matrix

    @property
    def n_rows(self) -> int:
        return int(self.magnitudes_db.shape[0])


def _as_wire_matrix(magnitudes_db) -> np.ndarray:
    """Validate an outgoing (N, F) magnitude matrix.

    Only numeric matrices ride the wire: ``FrequencyResponse`` objects
    (accepted by the in-process submit paths) must be sampled to dB
    rows first -- a clear :class:`CodecError` beats a ``TypeError``
    from deep inside NumPy.
    """
    try:
        matrix = np.asarray(magnitudes_db, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CodecError(
            "magnitudes_db must be a numeric (N, F) matrix of dB "
            "magnitudes; FrequencyResponse objects cannot ride the "
            "wire -- sample them at the circuit's test vector first"
        ) from exc
    if matrix.ndim != 2:
        raise CodecError(
            f"magnitudes_db must be a 2-D (N, F) matrix, got shape "
            f"{matrix.shape}")
    return matrix


def encode_request(circuit: str,
                   magnitudes_db: Union[np.ndarray, Sequence[Sequence[float]]]
                   ) -> bytes:
    """Serialise a diagnosis request to its JSON wire form."""
    matrix = _as_wire_matrix(magnitudes_db)
    return _dumps({"circuit": circuit,
                   "magnitudes_db": matrix.tolist()})


def decode_request(payload: Payload) -> DiagnoseRequest:
    """Parse and validate a diagnosis request payload."""
    return _decode_requests(payload, "single")[0][0]


def _request_from_obj(obj: object) -> DiagnoseRequest:
    if not isinstance(obj, dict):
        raise CodecError("request must be a JSON object")
    circuit = obj.get("circuit")
    if not isinstance(circuit, str) or not circuit:
        raise CodecError("request needs a non-empty string 'circuit'")
    rows = obj.get("magnitudes_db")
    if not isinstance(rows, list) or not rows:
        raise CodecError(
            "request needs a non-empty 'magnitudes_db' list of rows")
    try:
        matrix = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CodecError(
            f"magnitudes_db is not a numeric matrix: {exc}") from exc
    if matrix.ndim != 2:
        raise CodecError(
            f"magnitudes_db must be rectangular 2-D, got shape "
            f"{matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise CodecError("magnitudes_db contains non-finite values")
    return DiagnoseRequest(circuit=circuit, magnitudes_db=matrix)


def encode_request_many(
        requests: Sequence[tuple]) -> bytes:
    """Serialise a mixed-circuit burst of ``(circuit, magnitudes_db)``
    pairs to its JSON wire form (``POST /v1/diagnose-many``)."""
    items = []
    for circuit, magnitudes_db in requests:
        items.append({"circuit": circuit,
                      "magnitudes_db":
                          _as_wire_matrix(magnitudes_db).tolist()})
    if not items:
        raise CodecError("burst must hold at least one request")
    return _dumps({"requests": items})


def decode_request_many(payload: Payload) -> List[DiagnoseRequest]:
    """Parse and validate a mixed-circuit burst payload."""
    return _decode_requests(payload, "burst")[0]


def decode_posterior_request(payload: Payload
                             ) -> Tuple[List[DiagnoseRequest], bool]:
    """Parse a ``/v1/diagnose-posterior`` body: the single shape
    (byte-compatible with ``encode_request``) or the burst shape
    (byte-compatible with ``encode_request_many``). Returns
    ``(requests, is_burst)``."""
    return _decode_requests(payload, "either")


def decode_requests(payload: Payload, shape: str
                    ) -> Tuple[List[DiagnoseRequest], bool]:
    """Parse a request body of ``shape``: ``"single"`` (one
    ``{"circuit", "magnitudes_db"}`` object), ``"burst"``
    (``{"requests": [...]}``) or ``"either"`` (told apart by the
    ``"requests"`` key). Returns ``(requests, is_burst)``."""
    return _decode_requests(payload, shape)


def _decode_requests(payload: Payload, shape: str
                     ) -> Tuple[List[DiagnoseRequest], bool]:
    # Shared by every public request decoder (see _encode_answers for
    # why they never call each other).
    obj = _loads(payload)
    if not isinstance(obj, dict):
        raise CodecError("request must be a JSON object")
    is_burst = "requests" in obj if shape == "either" \
        else shape == "burst"
    if not is_burst:
        return [_request_from_obj(obj)], False
    items = obj.get("requests")
    if not isinstance(items, list) or not items:
        raise CodecError("burst needs a non-empty 'requests' list")
    return [_request_from_obj(item) for item in items], True


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def diagnosis_to_dict(diagnosis: Diagnosis) -> Dict[str, object]:
    """JSON-ready dict for one diagnosis (bitwise round-trippable).

    Margins and ranking distances can be legitimately infinite (a
    single-trajectory set; components masked out by the
    perpendicular-foot rule), so they ride as explicit ``"inf"`` /
    ``"-inf"`` tokens; a NaN in either is rejected with
    :class:`CodecError` rather than silently shipped.
    """
    return {
        "component": diagnosis.component,
        "estimated_deviation": diagnosis.estimated_deviation,
        "distance": diagnosis.distance,
        "perpendicular": diagnosis.perpendicular,
        "margin": _float_to_wire(diagnosis.margin, "margin"),
        "point": list(diagnosis.point),
        "ranking": [[name, _float_to_wire(distance,
                                          f"ranking[{name}]")]
                    for name, distance in diagnosis.ranking],
    }


def diagnosis_from_dict(obj: Dict[str, object]) -> Diagnosis:
    """Rebuild a :class:`Diagnosis` from its wire dict."""
    try:
        return Diagnosis(
            component=str(obj["component"]),
            estimated_deviation=float(obj["estimated_deviation"]),
            distance=float(obj["distance"]),
            perpendicular=bool(obj["perpendicular"]),
            margin=_float_from_wire(obj["margin"], "margin"),
            point=tuple(float(x) for x in obj["point"]),
            ranking=tuple(
                (str(name), _float_from_wire(distance,
                                             f"ranking[{name}]"))
                for name, distance in obj["ranking"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed diagnosis dict: {exc}") from exc


# ----------------------------------------------------------------------
# Posterior (probabilistic tier)
# ----------------------------------------------------------------------
def posterior_to_dict(diagnosis: PosteriorDiagnosis
                      ) -> Dict[str, object]:
    """JSON-ready dict for one posterior diagnosis (bitwise
    round-trippable; probabilities/gains are always finite)."""
    return {
        "component": diagnosis.component,
        "probabilities": [[name, probability]
                          for name, probability
                          in diagnosis.probabilities],
        "entropy_bits": diagnosis.entropy_bits,
        "expected_deviation": diagnosis.expected_deviation,
        "test_ranking": [[freq_hz, gain_bits]
                         for freq_hz, gain_bits
                         in diagnosis.test_ranking],
        "n_samples": diagnosis.n_samples,
    }


def posterior_from_dict(obj: Dict[str, object]) -> PosteriorDiagnosis:
    """Rebuild a :class:`PosteriorDiagnosis` from its wire dict."""
    try:
        n_samples = obj["n_samples"]
        # orjson reads an integer literal beyond 64 bits as a double.
        if type(n_samples) is not int:
            raise CodecError(
                f"n_samples must be an integer within 64 bits, got "
                f"{n_samples!r}")
        return PosteriorDiagnosis(
            component=str(obj["component"]),
            probabilities=tuple(
                (str(name), float(probability))
                for name, probability in obj["probabilities"]),
            entropy_bits=float(obj["entropy_bits"]),
            expected_deviation=float(obj["expected_deviation"]),
            test_ranking=tuple(
                (float(freq_hz), float(gain_bits))
                for freq_hz, gain_bits in obj["test_ranking"]),
            n_samples=n_samples,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(
            f"malformed posterior diagnosis dict: {exc}") from exc


# ----------------------------------------------------------------------
# Responses, per mode
# ----------------------------------------------------------------------
#: mode -> (response key, answer -> wire dict, wire dict -> answer)
_MODE_WIRE = {
    "hard": ("diagnoses", diagnosis_to_dict, diagnosis_from_dict),
    "posterior": ("posteriors", posterior_to_dict, posterior_from_dict),
}


def _mode_wire(mode: str):
    try:
        return _MODE_WIRE[mode]
    except KeyError:
        raise CodecError(f"unknown mode {mode!r}; expected one of "
                         f"{MODES}") from None


# Every public encoder/decoder reaches the shared code through these
# private helpers, never through another public name: the benchmark
# ledger (perfbench/ledger.py) wraps public codec functions by name to
# count bytes, and a wrapped function calling a wrapped function would
# count the same payload twice.
def _encode_answers(answers: Sequence, mode: str) -> bytes:
    key, to_dict, _ = _mode_wire(mode)
    return _dumps({key: [to_dict(answer) for answer in answers]})


def _decode_answers(payload: Payload, mode: str) -> list:
    key, _, from_dict = _mode_wire(mode)
    obj = _loads(payload)
    if not isinstance(obj, dict) or key not in obj:
        raise CodecError(f"response must be an object with '{key}'")
    items = obj[key]
    if not isinstance(items, list):
        raise CodecError(f"'{key}' must be a list")
    return [from_dict(item) for item in items]


def encode_answers(answers: Sequence, mode: str) -> bytes:
    """Serialise one request's answers of ``mode`` (see :data:`MODES`)."""
    return _encode_answers(answers, mode)


def decode_answers(payload: Payload, mode: str) -> list:
    """Parse one request's answers of ``mode`` back into objects."""
    return _decode_answers(payload, mode)


def encode_response(diagnoses: Sequence[Diagnosis]) -> bytes:
    """Serialise a list of diagnoses to the JSON wire form."""
    return _encode_answers(diagnoses, "hard")


def decode_response(payload: Payload) -> List[Diagnosis]:
    """Parse a diagnosis response payload back into objects."""
    return _decode_answers(payload, "hard")


def encode_posterior_response(
        diagnoses: Sequence[PosteriorDiagnosis]) -> bytes:
    """Serialise a list of posterior diagnoses to the wire form."""
    return _encode_answers(diagnoses, "posterior")


def decode_posterior_response(payload: Payload
                              ) -> List[PosteriorDiagnosis]:
    """Parse a posterior response payload back into objects."""
    return _decode_answers(payload, "posterior")


def encode_response_many(batches: Sequence[Sequence],
                         mode: str = "hard") -> bytes:
    """Serialise one answer list of ``mode`` per burst request."""
    _, to_dict, _ = _mode_wire(mode)
    return _dumps({"batches": [[to_dict(answer) for answer in batch]
                               for batch in batches]})


def decode_response_many(payload: Payload,
                         mode: str = "hard") -> List[list]:
    """Parse a burst response back into per-request answer lists."""
    _, _, from_dict = _mode_wire(mode)
    obj = _loads(payload)
    if not isinstance(obj, dict) or "batches" not in obj:
        raise CodecError("response must be an object with 'batches'")
    batches = obj["batches"]
    if not isinstance(batches, list) or \
            not all(isinstance(batch, list) for batch in batches):
        raise CodecError("'batches' must be a list of lists")
    return [[from_dict(item) for item in batch] for batch in batches]


# ----------------------------------------------------------------------
# Errors and stats
# ----------------------------------------------------------------------
def encode_error(message: str, kind: str = "error") -> bytes:
    """Serialise an error payload (`kind` names the exception class)."""
    return _dumps({"error": {"kind": kind, "message": message}})


def encode_stats(snapshot: Dict[str, object]) -> bytes:
    """Serialise a :meth:`ServiceStats.snapshot` dict."""
    return _dumps(snapshot)


def embed_trace(payload: bytes, trace: Dict[str, object]) -> bytes:
    """Add a finished span tree under ``"trace"`` to a JSON object body
    (``X-Repro-Debug: trace``); any other body comes back unchanged."""
    try:
        obj = _loads(payload)
        if isinstance(obj, dict):
            obj["trace"] = trace
            return _dumps(obj)
    except CodecError:
        pass
    return payload
