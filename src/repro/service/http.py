"""Stdlib HTTP front for the job service.

A thin JSON wrapper over :class:`~repro.service.jobs.LocalService` — no
framework, just ``http.server.ThreadingHTTPServer`` (threads, so a blocking
``/wait`` from one client never stalls another):

========  ==========================  ========================================
method    path                        semantics
========  ==========================  ========================================
POST      ``/jobs``                   submit ``{"config":…, "program": qasm,
                                      "priority":…}`` → ``202 {"job_id":…}``
GET       ``/jobs/<id>``              job status (state, attempts, failure
                                      chain, report when terminal)
GET       ``/jobs/<id>/report``       the report alone — ``409`` + state
                                      while the job is still in flight
GET       ``/jobs/<id>/wait``         block until terminal (``?timeout=s`` →
                                      ``504`` on expiry); the long-poll
                                      spelling of ``wait_for_job``
DELETE    ``/jobs/<id>``              cancel the job (withdraw if queued,
                                      kill the worker if running); idempotent
                                      — returns the job view either way
GET       ``/stats``                  service counters
========  ==========================  ========================================

Client errors (bad JSON, bad QASM, unknown config keys, a bad
``Content-Length`` or ``?timeout=``) are ``400`` with the exception text; a
body over :data:`MAX_BODY_BYTES` is ``413``; an unknown job id is ``404``; a
submission to a closed service is ``503``; any other fault in a handler is a
``500``.  Every answer is a JSON body — a request never ends in a dropped
connection.  Submissions are answered with the job id *before* any work
happens — the asynchrony contract.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .jobs import LocalService, ServiceClosed

__all__ = ["MAX_BODY_BYTES", "ServiceServer", "serve_http"]

#: Largest ``POST /jobs`` body accepted; the 11-qubit modular multiplier's
#: QASM is about 42 KB.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _ServiceHandler(BaseHTTPRequestHandler):
    server: "ServiceServer"

    # -- plumbing --------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # tests and embedded use must not spam stderr

    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle(self, route) -> None:
        """Run ``route``; a fault it did not answer itself becomes a 500."""
        try:
            route()
        except Exception as exc:  # noqa: BLE001 - never drop a connection
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self._handle(self._post)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        self._handle(self._delete)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._handle(self._get)

    # -- routes ----------------------------------------------------------

    def _post(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path.rstrip("/") != "/jobs":
            self._send(404, {"error": f"no such route {parsed.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                raise ValueError(f"bad Content-Length {length}")
            if length > MAX_BODY_BYTES:
                error = f"body of {length} bytes is over {MAX_BODY_BYTES}"
                self._send(413, {"error": error})
                return
            payload = json.loads(self.rfile.read(length) or b"{}")
            job_id = self.server.service.submit_payload(payload)
        except ServiceClosed as exc:
            self._send(503, {"error": str(exc)})
            return
        except (ValueError, TypeError, KeyError) as exc:
            self._send(400, {"error": str(exc)})
            return
        self._send(202, {"job_id": job_id})

    def _delete(self) -> None:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if len(parts) != 2 or parts[0] != "jobs":
            self._send(404, {"error": f"no such route {parsed.path!r}"})
            return
        try:
            job = self.server.service.cancel(parts[1])
        except KeyError as exc:
            self._send(404, {"error": str(exc)})
            return
        self._send(200, job.to_dict(include_report=False))

    def _get(self) -> None:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        service = self.server.service
        if parts == ["stats"]:
            self._send(200, service.stats())
            return
        if not parts or parts[0] != "jobs" or len(parts) > 3:
            self._send(404, {"error": f"no such route {parsed.path!r}"})
            return
        try:
            job = service.job(parts[1])
        except KeyError as exc:
            self._send(404, {"error": str(exc)})
            return
        if len(parts) == 2:
            self._send(200, job.to_dict())
            return
        if parts[2] == "report":
            if job.report is None:
                self._send(409, {"state": job.state, "terminal": job.terminal})
                return
            self._send(200, job.report.to_dict())
            return
        if parts[2] == "wait":
            query = parse_qs(parsed.query)
            timeout = None
            if "timeout" in query:
                text = query["timeout"][0]
                try:
                    timeout = float(text)
                except ValueError:
                    timeout = math.nan
                if not math.isfinite(timeout) or timeout < 0:
                    self._send(400, {"error": f"bad timeout {text!r}"})
                    return
            try:
                job = service.wait(job.id, timeout=timeout)
            except TimeoutError:
                self._send(504, {"state": job.state, "terminal": job.terminal})
                return
            self._send(200, job.to_dict())
            return
        self._send(404, {"error": f"no such route {parsed.path!r}"})


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`LocalService`."""

    daemon_threads = True

    def __init__(self, address: "tuple[str, int]", service: LocalService):
        super().__init__(address, _ServiceHandler)
        self.service = service
        self._thread: "threading.Thread | None" = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        """Serve on a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-service-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(10.0)
        self.server_close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_http(
    service: LocalService, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Bind (but do not start) an HTTP front; ``port=0`` picks a free port."""
    return ServiceServer((host, port), service)
