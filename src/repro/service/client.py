"""Stdlib HTTP client for the campaign service.

Backs ``repro submit`` / ``repro status`` and the pull runner; tests
use it to drive a real server end-to-end.  One request, one JSON
response — mirrors the server's ``Connection: close`` protocol, so a
plain :mod:`urllib.request` round trip per call is the whole client.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Mapping, Optional


class ServiceError(RuntimeError):
    """A service-level failure: HTTP error status or unreachable host."""

    def __init__(self, message: str, status: Optional[int] = None,
                 payload: Optional[Dict[str, object]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServiceClient:
    """Typed wrapper over the service's JSON endpoints."""

    def __init__(self, base_url: str, timeout_s: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)

    def _request(self, method: str, path: str,
                 body: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, object]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(self.base_url + path, data=data,
                                     headers=headers, method=method)
        try:
            with urllib.request.urlopen(req,
                                        timeout=self.timeout_s) as resp:
                return json.loads(resp.read() or b"{}")
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read() or b"{}")
            except ValueError:
                payload = {}
            raise ServiceError(
                str(payload.get("error",
                                f"HTTP {exc.code} from {path}")),
                status=exc.code, payload=payload) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"service unreachable at {self.base_url}: "
                f"{exc.reason}") from exc

    # -- client surface ------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._request("GET", "/health")

    def submit(self, spec: Mapping[str, Any]) -> Dict[str, object]:
        return self._request("POST", "/submit", {"spec": dict(spec)})

    def status(self, job: Optional[str] = None) -> Dict[str, object]:
        if job is None:
            return self._request("GET", "/status")
        return self._request("GET", f"/jobs/{job}")

    def stream(self, job: str, interval_s: float = 0.5,
               timeout_s: float = 300.0
               ) -> Iterator[Dict[str, object]]:
        """``GET /jobs/<id>?stream=1``: yield newline-delimited JSON
        progress snapshots until the server closes the stream (final
        record carries ``"final": true`` plus results).

        The per-read socket timeout doubles as a stall detector —
        a healthy stream emits every ``interval_s``.
        """
        url = (f"{self.base_url}/jobs/{job}?stream=1"
               f"&interval={interval_s:g}")
        req = urllib.request.Request(
            url, headers={"Accept": "application/x-ndjson"})
        try:
            with urllib.request.urlopen(
                    req, timeout=max(self.timeout_s,
                                     interval_s * 4)) as resp:
                deadline = time.monotonic() + timeout_s
                for line in resp:
                    if time.monotonic() >= deadline:
                        raise ServiceError(
                            f"job {job} still streaming after "
                            f"{timeout_s:g}s")
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield json.loads(line)
                    except ValueError as exc:
                        raise ServiceError(
                            f"bad stream record: {exc}") from exc
        except urllib.error.HTTPError as exc:
            raise ServiceError(f"HTTP {exc.code} from stream",
                               status=exc.code) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"service unreachable at {self.base_url}: "
                f"{exc.reason}") from exc

    def wait(self, job: str, timeout_s: float = 300.0,
             poll_s: float = 0.2, on_progress=None) -> Dict[str, object]:
        """Follow one job to completion over the held-open streaming
        endpoint (one snapshot every ``poll_s``); returns its final
        status.  ``on_progress`` (if given) receives every intermediate
        status snapshot.  A stream that closes without a final record —
        the head shut down — raises :class:`ServiceError`.
        """
        for status in self.stream(job, interval_s=poll_s,
                                  timeout_s=timeout_s):
            if "error" in status:
                raise ServiceError(str(status["error"]))
            if status.get("final") or status.get("state") == "done":
                return status
            if on_progress is not None:
                on_progress(status)
        raise ServiceError(
            f"stream of job {job} closed before the job finished")

    def lookup(self, spec: Optional[Mapping[str, Any]] = None,
               key: Optional[str] = None) -> List[Dict[str, object]]:
        body: Dict[str, Any] = {}
        if spec is not None:
            body["spec"] = dict(spec)
        if key is not None:
            body["key"] = key
        rows = self._request("POST", "/lookup", body).get("rows", [])
        return list(rows)

    def store_stats(self) -> Dict[str, object]:
        return self._request("GET", "/store")

    def metrics(self) -> Dict[str, object]:
        """The merged registry snapshot (JSON rendering of /metrics)."""
        return self._request("GET", "/metrics?format=json")

    def metrics_text(self) -> str:
        """The Prometheus text rendering of /metrics."""
        req = urllib.request.Request(
            self.base_url + "/metrics?format=text",
            headers={"Accept": "text/plain"})
        try:
            with urllib.request.urlopen(req,
                                        timeout=self.timeout_s) as resp:
                return resp.read().decode()
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"service unreachable at {self.base_url}: "
                f"{getattr(exc, 'reason', exc)}") from exc

    def trace(self, job: str) -> Dict[str, object]:
        """The causally-linked span tree for one job."""
        return self._request("GET", f"/jobs/{job}/trace")

    # -- runner surface ------------------------------------------------
    def lease(self, runner: str = "remote", max_leases: int = 1,
              ttl_s: Optional[float] = None
              ) -> List[Dict[str, object]]:
        body: Dict[str, Any] = {"runner": runner, "max": max_leases}
        if ttl_s is not None:
            body["ttl_s"] = ttl_s
        return list(self._request("POST", "/lease",
                                  body).get("leases", []))

    def complete(self, lease: str, chunks: List[Mapping[str, Any]],
                 runner: Optional[str] = None,
                 key: Optional[str] = None,
                 spans: Optional[List[Mapping[str, Any]]] = None,
                 obs_snapshot: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, object]:
        body: Dict[str, Any] = {"lease": lease,
                                "chunks": [dict(c) for c in chunks]}
        if runner is not None:
            body["runner"] = runner
        if key is not None:
            body["key"] = key
        if spans:
            body["spans"] = [dict(s) for s in spans]
        if obs_snapshot:
            body["obs"] = dict(obs_snapshot)
        return self._request("POST", "/complete", body)

    def fail(self, lease: str, error: str = "",
             runner: Optional[str] = None) -> Dict[str, object]:
        body: Dict[str, Any] = {"lease": lease, "error": error}
        if runner is not None:
            body["runner"] = runner
        return self._request("POST", "/fail", body)
