"""A stdlib client for the analysis daemon.

:class:`ServiceClient` wraps the wire protocol in one method per endpoint,
using nothing beyond ``urllib`` — the same zero-dependency constraint as
the daemon.  Errors come back as :class:`ServiceClientError` carrying the
HTTP status and the server's error type/message, so callers can branch on
``error.status`` (409 = non-monotone update, retry with
``allow_rebuild=True``) without parsing strings.  Transport failures —
the daemon is not running, the host does not resolve — surface as status
0 / ``ConnectionError``; a response that is not a well-formed ok/result
envelope surfaces as status 502 / ``MalformedEnvelope``.

The client is deliberately stateless: one instance per base URL, safe to
share across threads (each request opens its own connection), which is
what the load study's concurrent edit-streams do.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Optional, Sequence

from repro.service.wire import endpoint


class ServiceClientError(RuntimeError):
    """A daemon request that came back as an error envelope.

    ``status`` is the HTTP status, ``error_type`` the server-side exception
    class name (from the error taxonomy), ``message`` its text.
    """

    def __init__(self, status: int, error_type: str, message: str) -> None:
        super().__init__(f"[{status}] {error_type}: {message}")
        self.status = status
        self.error_type = error_type
        self.message = message


class ServiceClient:
    """Typed access to one running analysis daemon."""

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    @classmethod
    def for_address(cls, host: str, port: int, *,
                    timeout: float = 60.0) -> "ServiceClient":
        return cls(f"http://{host}:{port}", timeout=timeout)

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _request(self, name: str, payload: Optional[dict] = None) -> dict:
        url = self.base_url + endpoint(name)
        if payload is None:
            request = urllib.request.Request(url, method="GET")
        else:
            body = json.dumps(payload).encode("utf-8")
            request = urllib.request.Request(
                url, data=body, method="POST",
                headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                raw = response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            # Error envelopes arrive as HTTP errors; surface the taxonomy.
            try:
                envelope = json.loads(error.read().decode("utf-8"))
                detail = envelope.get("error") or {}
                raise ServiceClientError(
                    error.code, detail.get("type", "unknown"),
                    detail.get("message", str(error))) from None
            except (ValueError, AttributeError):
                raise ServiceClientError(
                    error.code, "HTTPError", str(error)) from None
        except urllib.error.URLError as error:
            # No HTTP conversation happened at all (daemon not running,
            # unresolvable host, timeout): status 0 = transport failure.
            raise ServiceClientError(
                0, "ConnectionError",
                f"cannot reach the analysis daemon at {self.base_url}: "
                f"{error.reason}") from None
        try:
            envelope = json.loads(raw)
        except ValueError:
            raise ServiceClientError(
                502, "MalformedEnvelope",
                f"the daemon's response is not JSON: {raw[:120]!r}") from None
        if not isinstance(envelope, dict):
            raise ServiceClientError(
                502, "MalformedEnvelope",
                "the daemon's response is not an ok/result envelope")
        if not envelope.get("ok"):
            detail = envelope.get("error") or {}
            raise ServiceClientError(
                detail.get("status", 500), detail.get("type", "unknown"),
                detail.get("message", "malformed error envelope"))
        if "result" not in envelope:
            raise ServiceClientError(
                502, "MalformedEnvelope",
                "the daemon's ok envelope carries no result")
        return envelope["result"]

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def open(self, session: str, *, source: Optional[str] = None,
             benchmark: Optional[str] = None,
             roots: Optional[Sequence[str]] = None,
             scale: Optional[float] = None,
             replace: bool = False) -> dict:
        payload = {"session": session, "replace": replace}
        if source is not None:
            payload["source"] = source
        if benchmark is not None:
            payload["benchmark"] = benchmark
        if roots is not None:
            payload["roots"] = list(roots)
        if scale is not None:
            payload["scale"] = scale
        return self._request("open", payload)

    def update(self, session: str, *, source: Optional[str] = None,
               edit: Optional[dict] = None,
               allow_rebuild: bool = False) -> dict:
        payload = {"session": session, "allow_rebuild": allow_rebuild}
        if source is not None:
            payload["source"] = source
        if edit is not None:
            payload["edit"] = edit
        return self._request("update", payload)

    def analyze(self, session: str, analysis: str,
                options: Optional[dict] = None, *,
                audit: bool = False) -> dict:
        """Solve one analysis on a session (``/v1/analyze``).

        The response's ``mode`` is one of
        :data:`~repro.service.manager.ANALYZE_MODES`: ``cached``,
        ``warm`` (the slot's own state resumed), ``stored`` (the base's
        stored fixpoint resumed over the session's edits), ``cold`` or
        ``cold-fallback`` (a resume refused; ``fallback_reasons`` says
        why).  ``steps_paid`` is what this request's solve cost.
        """
        payload = {"session": session, "analysis": analysis}
        if options:
            payload["options"] = options
        if audit:
            payload["audit"] = True
        return self._request("analyze", payload)

    def check(self, session: str, analysis: Optional[str] = None,
              options: Optional[dict] = None) -> dict:
        """Static diagnostics over a session (lint; audits with ``analysis``)."""
        payload = {"session": session}
        if analysis is not None:
            payload["analysis"] = analysis
        if options:
            payload["options"] = options
        return self._request("check", payload)

    def evict(self, session: str) -> dict:
        return self._request("evict", {"session": session})

    def close(self, session: str) -> dict:
        return self._request("close", {"session": session})

    def sessions(self) -> list:
        return self._request("sessions")

    def metrics(self) -> dict:
        return self._request("metrics")

    def health(self) -> dict:
        return self._request("health")
