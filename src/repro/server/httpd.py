"""Optional HTTP front end over the same request machinery.

Stdlib-only (``http.server``); the daemon's primary transport is stdio,
and this exists for clients that would rather ``curl`` than manage a
child process::

    $ repro serve --http 127.0.0.1:8171 --workers 4
    $ curl -s localhost:8171/rpc -d \\
        '{"id":1,"method":"analyze","params":{"text":"..."}}'

Endpoints:

``POST /rpc``
    One protocol request per call, same JSON body and response as a
    stdio line (see :mod:`repro.server.protocol`).  A ``shutdown``
    request stops the HTTP server after the response is sent.
``GET /status``
    The ``status`` result directly (no JSON-RPC envelope).
``GET /healthz``
    ``{"ok": true}`` — liveness only, touches no session state.

The server is a :class:`~http.server.ThreadingHTTPServer`: every
connection gets its own handler thread, so ``/healthz`` answers while
a slow ``analyze`` is in flight (a plain ``HTTPServer`` serialized
everything behind the analysis, which read as a dead daemon to any
health checker).  ``/rpc`` bodies are fed through the shared
:class:`~repro.server.scheduler.FairScheduler` to the worker pool; the
connection thread blocks until its response is produced, so each HTTP
client still sees plain request→response semantics.

Clients are namespaced: the request's own ``"client"`` field wins,
then the ``X-Repro-Client`` header, then a per-address default
(``http:<ip>``) — so two editors analyzing the same URI with different
buffers never clobber each other's document state.
"""

from __future__ import annotations

import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .. import obs
from .daemon import AnalysisServer, _SignalStop
from .protocol import ProtocolError, decode_request, dumps, error_response
from .scheduler import DEFAULT_CLIENT

__all__ = ["make_http_server", "serve_http", "parse_hostport"]

MAX_BODY_BYTES = 16 * 1024 * 1024

CLIENT_HEADER = "X-Repro-Client"


class _Server(ThreadingHTTPServer):
    # Handler threads are joined by server_close(): a graceful stop
    # never abandons a connection mid-response.
    daemon_threads = False
    block_on_close = True


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-server"
    protocol_version = "HTTP/1.1"

    # The AnalysisServer rides on the HTTPServer instance (set by
    # make_http_server); BaseHTTPRequestHandler instantiates per request.
    @property
    def analysis(self) -> AnalysisServer:
        return self.server.analysis  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        # Default implementation writes access logs to stderr; the
        # daemon's chatter policy keeps even stderr quiet unless asked.
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        with obs.span("reporting.render"):
            body = dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _client_id(self, explicit: Optional[str]) -> str:
        """The session namespace for this connection."""
        if explicit:
            return explicit
        header = self.headers.get(CLIENT_HEADER)
        if header:
            return header
        return f"http:{self.client_address[0]}"

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        # Both GETs bypass the request queue on purpose: liveness and
        # introspection must answer while the workers are busy.
        if self.path == "/healthz":
            self._send_json(200, {"ok": True})
        elif self.path == "/status":
            self._send_json(
                200, self.analysis._handle_status({}, DEFAULT_CLIENT)
            )
        else:
            self._send_json(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/rpc":
            self._send_json(404, {"error": f"no route {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(
                400, {"error": "body required (Content-Length)"}
            )
            return
        body = self.rfile.read(length).decode("utf-8", errors="replace")
        try:
            request = decode_request(body)
        except ProtocolError as exc:
            self._send_json(200, error_response(None, exc.code, str(exc)))
            return
        client = self._client_id(request.client)
        if self.analysis.started:
            # Through the fair scheduler to the worker pool; this
            # connection thread parks until the response exists.
            done = threading.Event()
            box: Dict[str, Any] = {}

            def respond(reply: Dict[str, Any]) -> None:
                box["reply"] = reply
                done.set()

            self.analysis.submit(request, client=client, respond=respond)
            done.wait()
            reply = box["reply"]
        else:
            # No pool running (tests drive make_http_server directly):
            # serve synchronously on this connection thread.
            reply = self.analysis.handle_request(request, client=client)
        self._send_json(200, reply)
        if self.analysis.shutting_down.is_set():
            # Stop accepting after the shutdown response is on the wire.
            self.server._BaseServer__shutdown_request = True  # type: ignore[attr-defined]


def make_http_server(
    analysis: AnalysisServer, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A bound (not yet serving) HTTP server sharing ``analysis``."""
    httpd = _Server((host, port), _Handler)
    httpd.analysis = analysis  # type: ignore[attr-defined]
    return httpd


def serve_http(
    analysis: Optional[AnalysisServer] = None,
    host: str = "127.0.0.1",
    port: int = 8171,
    install_signal_handlers: bool = True,
) -> int:
    """Serve HTTP until ``shutdown``, SIGTERM, SIGINT, or Ctrl-C.

    Every stop is graceful: the worker pool drains (each accepted
    request still gets its response), resident results are flushed to
    the disk store, handler threads are joined, and 0 is returned —
    the same contract the stdio loop has always had.
    """
    analysis = analysis if analysis is not None else AnalysisServer()
    httpd = make_http_server(analysis, host=host, port=port)

    previous: Dict[int, Any] = {}
    if install_signal_handlers:

        def _on_signal(signum: int, frame: Any) -> None:
            raise _SignalStop(signum)

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(sig, _on_signal)
            except ValueError:  # pragma: no cover - non-main thread
                pass

    analysis.start()
    try:
        httpd.serve_forever(poll_interval=0.2)
    except (_SignalStop, KeyboardInterrupt):
        analysis.shutting_down.set()
    finally:
        # Order matters: refuse + drain the queue first (releases any
        # connection threads parked on responses), then join handler
        # threads, then flush so the next start is just as warm.
        analysis.drain()
        httpd.server_close()
        if analysis.flushed is None:
            analysis.flushed = analysis.session.flush()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def parse_hostport(spec: str, default_port: int = 8171) -> Tuple[str, int]:
    """``"host:port"`` / ``"host"`` / ``":port"`` → ``(host, port)``."""
    if ":" in spec:
        host, _, port_s = spec.rpartition(":")
        host = host or "127.0.0.1"
        try:
            return host, int(port_s)
        except ValueError:
            raise ValueError(f"invalid --http address {spec!r}") from None
    return spec or "127.0.0.1", default_port
