"""The asyncio HTTP server wrapping the job manager.

Stdlib only: ``asyncio.start_server`` plus a minimal HTTP/1.1 layer
(request line, headers, ``Content-Length`` bodies; one request per
connection, ``Connection: close``; a request not fully read within
:data:`READ_TIMEOUT_S` closes its connection).  The event loop never computes — it
parses, routes and serializes; every sweep runs in the manager's worker
threads, and the loop only ever blocks on sockets and short sleeps, so
one service instance multiplexes many tenants over one shared store.

Lifecycle: :meth:`ServiceApp.run` binds, installs SIGTERM/SIGINT
handlers (where the platform supports them) and serves until a signal
arrives; then it stops accepting, drains the manager (running jobs stop
at their next completed task — everything completed is already
persisted through ``on_result``) and returns.  A restarted replica
resumes interrupted jobs from the store at zero recompute cost.

Deployment note: point several replicas at one store directory
(``--store-dir`` on a shared filesystem) and give jobs the
``shared-store`` backend — the claim protocol partitions tasks across
replicas dynamically, and every replica serves every result.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Any, Callable, Dict, Optional

from repro.service.jobs import JobManager
from repro.service.routes import (
    MAX_BODY_BYTES,
    Request,
    Response,
    build_router,
    dispatch,
    error_response,
)

__all__ = ["ServiceApp", "run_service"]

#: Most header lines one request may carry; a flood past it is a 400.
MAX_HEADER_LINES = 100

#: Seconds a client gets to deliver one whole request (line, headers and
#: body); a connection that stalls past it is closed without a reply.
READ_TIMEOUT_S = 30.0

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ServiceApp:
    """One service instance: HTTP front, job manager, drain choreography.

    Args:
        store: shared :class:`repro.store.ResultStore`.
        telemetry: optional :class:`repro.telemetry.Telemetry` backing
            ``/metrics``.
        host / port: bind address; port 0 asks the OS for an ephemeral
            port (read the resolved one from :attr:`port` after
            :meth:`start`).
        backend / workers / retries / task_timeout_s: manager defaults.
        drain_timeout_s: how long :meth:`shutdown` waits for running
            jobs to stop at their next task boundary.
        metric_labels: constant labels stamped on every ``/metrics``
            sample (e.g. an instance id).
    """

    def __init__(
        self,
        store: Any,
        telemetry: Optional[Any] = None,
        host: str = "127.0.0.1",
        port: int = 8765,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        retries: int = 1,
        task_timeout_s: Optional[float] = None,
        drain_timeout_s: float = 30.0,
        metric_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.drain_timeout_s = drain_timeout_s
        self.metric_labels = metric_labels
        self.manager = JobManager(
            store,
            telemetry=telemetry,
            backend=backend,
            workers=workers,
            retries=retries,
            task_timeout_s=task_timeout_s,
        )
        self.router = build_router()
        self._server: Optional[asyncio.AbstractServer] = None
        # Created inside the running loop (start()): binding an
        # asyncio.Event at construction time breaks on 3.9, where it
        # captures whatever loop exists *then*.
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- HTTP plumbing -------------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Request]:
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {request_line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES + 1):  # + the blank terminator
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ValueError(f"more than {MAX_HEADER_LINES} header lines")
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise ValueError("Content-Length must be a non-negative integer")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return Request(method=method, path=path, headers=headers, body=body)

    @staticmethod
    def _head(response: Response, chunked: bool) -> bytes:
        reason = _STATUS_TEXT.get(response.status, "Unknown")
        lines = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            "Connection: close",
        ]
        if chunked:
            lines.append("Transfer-Encoding: chunked")
        else:
            lines.append(f"Content-Length: {len(response.body)}")
        for name, value in response.headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), READ_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                return  # stalled client: the finally below closes it
            except ValueError as exc:
                await self._write_response(
                    writer, error_response(str(exc), status=400)
                )
                return
            except asyncio.IncompleteReadError:
                return
            if request is None:
                return
            try:
                response = await dispatch(self, request)
            except Exception as exc:  # pragma: no cover - defensive
                response = error_response(
                    f"internal error: {type(exc).__name__}", status=500
                )
            await self._write_response(writer, response)
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        if response.stream is None:
            writer.write(self._head(response, chunked=False) + response.body)
            await writer.drain()
            return
        writer.write(self._head(response, chunked=True))
        await writer.drain()
        async for chunk in response.stream:
            if not chunk:
                continue
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1"))
            writer.write(chunk)
            writer.write(b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when it was 0."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (no-op off-POSIX)."""
        loop = asyncio.get_running_loop()
        stop = self._stop
        assert stop is not None
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                return

    def request_stop(self) -> None:
        """Programmatic equivalent of SIGTERM; safe from any thread."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            raise RuntimeError("service not started")
        loop.call_soon_threadsafe(stop.set)

    async def shutdown(self) -> None:
        """Stop accepting, then drain the manager in a worker thread."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, self.manager.drain, self.drain_timeout_s
        )

    async def run(self, on_ready: Optional[Callable[[], None]] = None) -> None:
        """Serve until a stop signal, then drain.  The whole lifecycle.

        ``on_ready`` runs once the service is bound *and* its signal
        handlers are installed, so a SIGTERM sent as soon as the caller
        announces readiness drains instead of killing the process.
        """
        await self.start()
        self.install_signal_handlers()
        print(f"repro service listening on http://{self.host}:{self.port}")
        if on_ready is not None:
            on_ready()
        assert self._stop is not None
        await self._stop.wait()
        print("drain requested; stopping intake and finishing in-flight tasks")
        await self.shutdown()
        print("drained; completed tasks are persisted in the store")


def run_service(store: Any, port_file: Optional[str] = None, **options: Any) -> int:
    """Blocking entry point behind ``repro serve``.

    ``options`` are :class:`ServiceApp`'s (host, port, telemetry, job
    defaults, drain timeout).  ``port_file`` (written after bind and
    after the signal handlers are installed) lets scripts using an
    ephemeral port (``--port 0``) discover where the service listens.
    """
    app = ServiceApp(store, **options)

    def write_port_file() -> None:
        if port_file:
            with open(port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{app.port}\n")

    asyncio.run(app.run(on_ready=write_port_file))
    return 0
