"""HTTP routes for the sweep job service.

A deliberately small request/response model over the stdlib: the app
layer parses one HTTP/1.1 request into a :class:`Request`, the router
matches ``METHOD /path`` against the table below, and the handler
returns a :class:`Response` — either a complete body or an async
chunk iterator (the ``/events`` stream).

Routes:

====== ============================ ===========================================
Method Path                         Meaning
====== ============================ ===========================================
POST   /v1/jobs                     submit a sweep config (idempotent on key)
GET    /v1/jobs                     list job summaries
GET    /v1/jobs/{id}                job state machine + per-task progress
GET    /v1/jobs/{id}/events         chunked progress event stream (JSONL)
GET    /v1/results/{key}            canonical JSON bytes under a content key
GET    /metrics                     Prometheus text exposition
GET    /healthz                     liveness (503 while draining)
====== ============================ ===========================================

Every JSON error body is ``{"error": ...}`` with the status carried by
:class:`repro.errors.ServiceError`.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.errors import ReproError, ServiceError

__all__ = [
    "Request",
    "Response",
    "Router",
    "build_router",
    "json_response",
    "EVENT_POLL_S",
]

#: How often the event stream re-checks a job for fresh events.  Small
#: enough to feel live, large enough not to spin the lock.
EVENT_POLL_S = 0.05

#: Largest request body the service accepts (a sweep config is tiny).
MAX_BODY_BYTES = 1 << 20

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The body parsed as strict JSON: ``NaN``, ``Infinity`` and
        numbers that overflow a float (``1e400``) are refused, since no
        job config can mean them and a stored result cannot hold them."""
        try:
            return json.loads(
                self.body.decode("utf-8"),
                parse_constant=_refuse_constant,
                parse_float=_finite_float,
            )
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc


def _refuse_constant(name: str) -> Any:
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite as a float")
    return value


@dataclass
class Response:
    """One response: either ``body`` or a chunked ``stream``."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    stream: Optional[AsyncIterator[bytes]] = None


def json_response(payload: Any, status: int = 200) -> Response:
    """A sorted-keys JSON response (deterministic wire bytes)."""
    body = (
        json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    ).encode("utf-8")
    return Response(status=status, body=body)


def error_response(message: str, status: int) -> Response:
    return json_response({"error": message}, status=status)


Handler = Callable[[Any, Request, Tuple[str, ...]], Awaitable[Response]]


class Router:
    """Exact-prefix route table with positional path parameters."""

    def __init__(self) -> None:
        #: (method, segments) -> handler; a ``None`` segment is a
        #: parameter slot captured into the handler's ``params`` tuple.
        self._routes: List[Tuple[str, Tuple[Optional[str], ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(
            None if part == "{}" else part
            for part in pattern.strip("/").split("/")
        )
        self._routes.append((method, segments, handler))

    def resolve(
        self, method: str, path: str
    ) -> Tuple[Optional[Handler], Tuple[str, ...], bool]:
        """(handler, params, path_known) for one request line."""
        parts = tuple(p for p in path.split("?")[0].strip("/").split("/"))
        path_known = False
        for route_method, segments, handler in self._routes:
            if len(segments) != len(parts):
                continue
            params: List[str] = []
            for segment, part in zip(segments, parts):
                if segment is None:
                    if not part:
                        break
                    params.append(part)
                elif segment != part:
                    break
            else:
                path_known = True
                if route_method == method:
                    return handler, tuple(params), True
        return None, (), path_known


async def handle_submit(app: Any, request: Request, params: Tuple[str, ...]) -> Response:
    job, deduped = app.manager.submit(request.json())
    document = job.document()
    document["deduplicated"] = deduped
    return json_response(document, status=200 if deduped else 201)


async def handle_list_jobs(
    app: Any, request: Request, params: Tuple[str, ...]
) -> Response:
    jobs = [
        {
            "id": job.id,
            "key": job.key,
            "state": job.state,
            "backend": job.backend,
            "created_s": job.created_s,
        }
        for job in app.manager.jobs()
    ]
    jobs.sort(key=lambda j: j["id"])
    return json_response({"jobs": jobs})


async def handle_get_job(
    app: Any, request: Request, params: Tuple[str, ...]
) -> Response:
    job = app.manager.get(params[0])
    return json_response(job.document())


async def handle_job_events(
    app: Any, request: Request, params: Tuple[str, ...]
) -> Response:
    job_id = params[0]
    app.manager.get(job_id)  # 404 before the stream starts

    async def stream() -> AsyncIterator[bytes]:
        cursor = 0
        while True:
            events, terminal = app.manager.events_since(job_id, cursor)
            for event in events:
                yield (
                    json.dumps(event, sort_keys=True, allow_nan=False) + "\n"
                ).encode("utf-8")
            cursor += len(events)
            if terminal and not events:
                return
            if not events:
                await asyncio.sleep(EVENT_POLL_S)

    return Response(
        content_type="application/x-ndjson", stream=stream()
    )


async def handle_results(
    app: Any, request: Request, params: Tuple[str, ...]
) -> Response:
    body = app.manager.results_bytes(params[0])
    return Response(body=body, content_type="application/json")


async def handle_metrics(
    app: Any, request: Request, params: Tuple[str, ...]
) -> Response:
    text = app.manager.metrics_text(labels=app.metric_labels)
    return Response(
        body=text.encode("utf-8"), content_type=PROMETHEUS_CONTENT_TYPE
    )


async def handle_healthz(
    app: Any, request: Request, params: Tuple[str, ...]
) -> Response:
    if app.manager.draining:
        return json_response({"status": "draining"}, status=503)
    return json_response({"status": "ok"})


def build_router() -> Router:
    """The service's route table."""
    router = Router()
    router.add("POST", "/v1/jobs", handle_submit)
    router.add("GET", "/v1/jobs", handle_list_jobs)
    router.add("GET", "/v1/jobs/{}", handle_get_job)
    router.add("GET", "/v1/jobs/{}/events", handle_job_events)
    router.add("GET", "/v1/results/{}", handle_results)
    router.add("GET", "/metrics", handle_metrics)
    router.add("GET", "/healthz", handle_healthz)
    return router


async def dispatch(app: Any, request: Request) -> Response:
    """Route one request, mapping library errors to wire errors."""
    handler, params, path_known = app.router.resolve(
        request.method, request.path
    )
    if handler is None:
        if path_known:
            return error_response(
                f"method {request.method} not allowed here", status=405
            )
        return error_response(f"no such route: {request.path}", status=404)
    try:
        return await handler(app, request, params)
    except ServiceError as exc:
        return error_response(str(exc), status=exc.status)
    except ReproError as exc:
        return error_response(str(exc), status=400)
