"""The service wire protocol: endpoints, envelopes, and option whitelist.

One small module both sides import, so the daemon and the client cannot
drift apart on names.  The protocol is deliberately plain:

* every endpoint lives under ``/v1/``; state-changing operations are
  ``POST`` with a JSON object body, introspection is ``GET``;
* every response is a JSON *envelope*: ``{"ok": true, "result": ...}`` on
  success, ``{"ok": false, "error": {"type", "message", "status"}}`` on
  failure, with the HTTP status mirroring ``error.status`` (mapped from the
  exception through :func:`repro.api.errors.http_status_for`);
* analysis payloads inside ``result.report`` use the versioned schema of
  :meth:`repro.api.report.AnalysisReport.to_dict` — the same bytes
  ``repro analyze --json`` prints.
"""

from __future__ import annotations

#: Version segment of every endpoint path.  Distinct from the *report*
#: schema version: this one covers request/response envelopes and endpoint
#: names, that one covers the analysis payload inside them.
WIRE_VERSION = 1

#: Path prefix of every endpoint (``/v1``).
WIRE_PREFIX = f"/v{WIRE_VERSION}"

#: ``POST`` endpoints (JSON object body) and ``GET`` endpoints, by suffix.
POST_ENDPOINTS = ("open", "update", "analyze", "check", "evict", "close")
GET_ENDPOINTS = ("sessions", "metrics", "health")

#: Analyzer options accepted over the wire: the
#: :class:`~repro.api.registry.ConfigAnalyzer` options.
WIRE_OPTIONS = frozenset({"saturation_threshold", "saturation_policy"})


def endpoint(name: str) -> str:
    """The request path for one endpoint suffix (``open`` → ``/v1/open``)."""
    return f"{WIRE_PREFIX}/{name}"


def ok_envelope(result: object) -> dict:
    return {"ok": True, "result": result}


def error_envelope(error: BaseException, status: int) -> dict:
    return {
        "ok": False,
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "status": status,
        },
    }
