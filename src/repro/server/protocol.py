"""The wire protocol: newline-delimited JSON over TCP.

Every message — request or response — is one JSON object on one line,
UTF-8, terminated by ``\\n``.  Term and atom payloads reuse the
versioned tagged-tree codec that the durable store persists with
(:mod:`repro.storage.codec`), so a value round-trips bit-identically
through the wire, the WAL, and the snapshot.

Requests carry an ``op`` plus op-specific fields, and an optional
``id`` the server echoes back (clients pipeline by matching ids)::

    {"op": "query",        "q": "? anc(ann, X).", "strategy": "seminaive"}
    {"op": "add_facts",    "pred": "parent", "rows": [[["s","ann"], ["s","bob"]]]}
    {"op": "remove_facts", "facts": [["parent", [["s","ann"], ["s","bob"]]]]}
    {"op": "explain",      "fact": "anc(ann, bob)"}
    {"op": "checkpoint"}
    {"op": "stats"}
    {"op": "ping"}

Responses are ``{"ok": true, ...payload}`` on success and
``{"ok": false, "error": message, "etype": exception class name}`` on
failure; the connection survives request-level failures.  Query answers
are ``[{variable: tagged-term}]`` — decode with
:func:`decode_binding`.

``add_facts``/``remove_facts`` accept either ``pred`` + ``rows`` (rows
of tagged terms for one predicate) or ``facts`` (full tagged atoms,
mixed predicates).

``query`` additionally accepts ``"cache": false`` to bypass the
server's answer cache for that one request (any value but a JSON
boolean is a :class:`ProtocolError`); query responses carry a
``cache`` field reporting how they were served (``hit``,
``hit-subsumed``, ``miss``, ``unsatisfiable``, or ``off``).  The same
requests travel verbatim as JSON bodies of the HTTP gateway
(:mod:`repro.server.gateway`).

Both transports serialize a reply through one function,
:func:`encode_json`: compact separators, ASCII escapes, keys in the
dict's own order — exactly ``json.dumps(reply, separators=(",", ":"))``.
The answer cache's wire memo hands out :class:`EncodedAnswers`, an
answer list that carries its own JSON text; :func:`encode_json` splices
that text into the reply instead of re-encoding the list.  The bytes do
not change: the text is ``json.dumps`` of the same list with the same
settings, and the dict a reply travels as still holds the list itself,
so ``json.dumps`` of it, with ``answers`` copied to a plain list, gives
the bytes either transport sends.
"""

from __future__ import annotations

import json

from repro.errors import ProtocolError, StorageError
from repro.program.rule import Atom
from repro.storage.codec import decode_atom, decode_term, encode_term

#: Default TCP port (`ldl1` has no IANA registration; this is arbitrary
#: but stable so docs, tests, and deployments agree).
DEFAULT_PORT = 8737

#: Default per-line request ceiling.  A request larger than this is
#: rejected and the connection closed: a reasonable client never sends
#: it, and an unbounded line is a memory-exhaustion vector.
MAX_REQUEST_BYTES = 1 << 20

#: Operations the server dispatches; anything else is a protocol error.
OPS = (
    "query",
    "add_facts",
    "remove_facts",
    "explain",
    "checkpoint",
    "stats",
    "ping",
)


#: ``json.dumps(obj, separators=(",", ":"))`` without building an
#: encoder per call: it is the encoder ``json.dumps`` would build.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class EncodedAnswers(list):
    """Wire answers ``[{variable: tagged tree}]`` that carry their own
    compact JSON text, built once, for :func:`encode_json` to splice.

    The text is ``json.dumps`` of the list as it stands when built;
    the answer cache shares one instance across replies, so never
    mutate it.  ``json.dumps`` serializes it as the plain list.
    """

    __slots__ = ("text",)

    def __init__(self, answers) -> None:
        super().__init__(answers)
        self.text = _encode(self)


def encode_json(payload: dict) -> str:
    """One message as compact JSON text: ``json.dumps`` of the dict,
    with an :class:`EncodedAnswers` ``answers`` spliced in as its text.

    Splicing writes each other key and value exactly as ``json.dumps``
    writes them inside the dict (message keys are strings), in order,
    so the text is the same either way.
    """
    answers = payload.get("answers")
    if not isinstance(answers, EncodedAnswers):
        return _encode(payload)
    items = [
        _encode(key) + ":" + (answers.text if key == "answers" else _encode(value))
        for key, value in payload.items()
    ]
    return "{" + ",".join(items) + "}"


def encode_message(payload: dict) -> bytes:
    """One message as a JSON line (newline included)."""
    return (encode_json(payload) + "\n").encode("utf-8")


def decode_message(line: bytes) -> dict:
    """Parse one received line; raises :class:`ProtocolError`."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def decode_request(line: bytes) -> dict:
    """Parse and validate one request line (shape only, not payloads)."""
    obj = decode_message(line)
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
    return obj


def atoms_of_request(request: dict) -> list[Atom]:
    """The ground atoms an ``add_facts``/``remove_facts`` request names."""
    try:
        if "facts" in request:
            facts = request["facts"]
            if not isinstance(facts, list):
                raise ProtocolError("'facts' must be a list of tagged atoms")
            return [decode_atom(f) for f in facts]
        if "pred" in request:
            pred, rows = request["pred"], request.get("rows", [])
            if not isinstance(pred, str):
                raise ProtocolError("'pred' must be a predicate name")
            if not isinstance(rows, list):
                raise ProtocolError("'rows' must be a list of term rows")
            return [
                Atom(pred, tuple(decode_term(t) for t in row)) for row in rows
            ]
    except StorageError as exc:  # codec-level malformation
        raise ProtocolError(str(exc)) from exc
    raise ProtocolError(f"{request.get('op')} needs 'facts' or 'pred'+'rows'")


def encode_binding(binding: dict) -> dict:
    """One query answer ``{variable: term}`` as tagged trees, keys in
    the binding's own order."""
    return {name: encode_term(term) for name, term in binding.items()}


def decode_binding(payload: dict) -> dict:
    """Inverse of :func:`encode_binding`, back to term objects."""
    try:
        return {name: decode_term(obj) for name, obj in payload.items()}
    except StorageError as exc:
        raise ProtocolError(str(exc)) from exc


def ok_response(request: dict, **payload) -> dict:
    out = {"ok": True, **payload}
    if "id" in request:
        out["id"] = request["id"]
    return out


def error_response(request: dict | None, exc: BaseException) -> dict:
    out = {"ok": False, "error": str(exc), "etype": type(exc).__name__}
    if request and "id" in request:
        out["id"] = request["id"]
    return out
