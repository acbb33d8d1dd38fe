"""Async HTTP/JSON serving tier over the query service.

:class:`MCKServer` is the network front end the ROADMAP's "millions of
users" need: a stdlib-``asyncio`` HTTP/1.1 server (see
:mod:`repro.server.http`) fronting a :class:`~repro.serving.QueryService`
whose worker-*process* pool (``process_algorithms=...``) runs the
CPU-bound EXACT / SKECa+ hot loops off the GIL.  The event loop only
parses frames and awaits futures; queries execute on the service's
admission-controlled worker pool, so one slow query never blocks the
accept loop.

Endpoints
---------
``POST /query``
    One mCK query.  Body: ``{"keywords": [...], "algorithm", "epsilon",
    "timeout", "explain"}``.  Degraded (anytime) answers return 200 with
    ``"degraded": true`` and their certified ``"quality"`` tag; admission
    rejections return 429 with a ``Retry-After`` header.
``POST /mutate``
    Atomic mutation batch (live engines only; 409 otherwise).
``GET /topk``
    Diversified top-k answers (``?keywords=a,b&k=3``).
``GET /healthz`` / ``GET /readyz``
    Liveness vs. readiness.  Readiness flips *before* overload: once the
    admission queue passes ``ready_fraction`` of its capacity the server
    answers 503 so a load balancer sheds first, while requests already
    arriving are still admitted until the queue is actually full.
``GET /metrics``
    Prometheus text exposition of the service's metric families.
``GET /flightz``
    Flight-recorder stats plus retained-trace summaries (when a
    :class:`~repro.observability.flight.FlightRecorder` is wired).

Overload contract: the existing :class:`~repro.serving.admission
.AdmissionController` and :class:`~repro.serving.breaker.CircuitBreaker`
sit unchanged at the edge — the HTTP layer only *translates* their typed
:class:`~repro.exceptions.QueryRejected` refusals into 429 responses
whose ``Retry-After`` is estimated from the observed p95 service time
and current queue depth.
"""

from __future__ import annotations

import asyncio
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..exceptions import (
    DatasetError,
    QueryError,
    QueryRejected,
    ReproError,
)
from ..observability.logging import get_logger
from ..serving.service import QueryService, ServedResult
from .http import HTTPError, HTTPRequest, read_request, render_response

__all__ = ["MCKServer", "ServerHandle"]

_log = get_logger("server")


class ServerHandle:
    """A running server's address plus its stop switch (thread mode)."""

    def __init__(self, server: "MCKServer", thread: threading.Thread):
        self._server = server
        self._thread = thread

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        """Drain and stop the server; joins the serving thread."""
        self._server.request_stop()
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class MCKServer:
    """Asyncio HTTP front end over one :class:`QueryService`.

    Parameters
    ----------
    service:
        The (already constructed) query service.  For off-GIL execution
        build it with ``process_algorithms=(...)``; for mutability build
        it over a :class:`~repro.live.LiveMCKEngine`.
    host / port:
        Bind address; ``port=0`` picks a free port (read :attr:`port`
        after :meth:`start`).
    ready_fraction:
        Queue-depth fraction of the admission capacity at which
        ``/readyz`` flips unready (default 0.8) — strictly below 1.0 so
        load balancers stop routing *before* admission starts rejecting.
    max_body_bytes:
        Request-body cap (413 beyond it).
    topk_limit:
        Upper bound on the ``k`` the /topk endpoint accepts.
    owns_service:
        When true, :meth:`close`/shutdown also closes the service (the
        CLI uses this; embedders usually manage the service themselves).
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ready_fraction: float = 0.8,
        max_body_bytes: int = 1024 * 1024,
        topk_limit: int = 16,
        owns_service: bool = False,
    ):
        if not 0.0 < ready_fraction <= 1.0:
            raise ValueError("ready_fraction must be in (0, 1]")
        self.service = service
        self.host = host
        self.port = port
        self.ready_fraction = float(ready_fraction)
        self.max_body_bytes = int(max_body_bytes)
        self.topk_limit = int(topk_limit)
        self.owns_service = owns_service
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = asyncio.Event()
        self._draining = False
        #: Blocking endpoints (top-k, metrics rendering) run here so the
        #: event loop never stalls on CPU-bound work.
        self._aux = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="mck-http-aux"
        )
        metrics = service.metrics
        self._http_counter = metrics.counter(
            "mck_http_requests_total",
            help="HTTP requests served, by route and status code.",
            label_names=("route", "status"),
        )
        self._ready_gauge = metrics.gauge(
            "mck_server_ready",
            help="1 while /readyz answers ready, 0 while shedding.",
        )
        self._ready_gauge.set(1.0)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("server.listening", host=self.host, port=self.port)

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`; drains, then closes."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._stopping.wait()
        if self.owns_service:
            await asyncio.get_running_loop().run_in_executor(
                None, self.service.close
            )
        self._aux.shutdown(wait=False)

    def request_stop(self) -> None:
        """Thread-safe: flip unready, stop accepting, release the loop."""
        self._draining = True
        self._ready_gauge.set(0.0)
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._stopping.set)

    def run_in_thread(self) -> ServerHandle:
        """Start in a dedicated event-loop thread; returns the handle.

        The pattern tests, smoke scripts and ``mck bench --http``
        share: the caller keeps its (synchronous) thread and talks to the
        server over a real socket.
        """
        started = threading.Event()
        failure: List[BaseException] = []

        def _runner() -> None:
            async def _main() -> None:
                try:
                    await self.start()
                except BaseException as err:  # bind failure -> caller
                    failure.append(err)
                    return
                finally:
                    started.set()
                await self.serve_until_stopped()

            asyncio.run(_main())

        thread = threading.Thread(
            target=_runner, name="mck-http-server", daemon=True
        )
        thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return ServerHandle(self, thread)

    # ------------------------------------------------------------------ #
    # Readiness
    # ------------------------------------------------------------------ #

    def readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """Current readiness plus the JSON detail /readyz reports."""
        admission = self.service.admission
        capacity = admission.capacity
        depth = admission.queue_depth
        threshold = (
            max(1, math.ceil(self.ready_fraction * capacity))
            if capacity is not None
            else None
        )
        recovery = getattr(self.service.engine, "recovery_report", None)
        if self._draining:
            ready, reason = False, "draining"
        elif recovery is not None and not recovery.complete:
            # A checkpointed engine still recovering (segment load / WAL
            # tail replay in progress) serves queries over a partial view;
            # stay unready so load balancers hold traffic until the store
            # reaches its restored state.
            ready, reason = False, f"recovering ({recovery.state})"
        elif threshold is not None and depth >= threshold:
            ready, reason = False, "admission queue beyond ready fraction"
        else:
            ready, reason = True, "ok"
        detail = {
            "ready": ready,
            "reason": reason,
            "queue_depth": depth,
            "capacity": capacity,
            "ready_threshold": threshold,
            "inflight": admission.inflight,
        }
        if recovery is not None:
            detail["recovery"] = recovery.as_dict()
        self._ready_gauge.set(1.0 if ready else 0.0)
        return ready, detail

    def _retry_after_seconds(self) -> int:
        """Estimated queue drain time, clamped to [1, 30] whole seconds."""
        est = self.service.metrics.service_time_p95() or 0.0
        depth = self.service.admission.queue_depth
        workers = max(1, self.service.max_workers)
        drain = est * (depth + 1) / workers
        return int(min(30, max(1, math.ceil(drain))))

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.max_body_bytes
                    )
                except HTTPError as err:
                    writer.write(
                        render_response(
                            err.status,
                            {"error": err.message},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload = await self._dispatch(request)
                writer.write(payload)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # loop shutdown with a keep-alive connection parked here
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                # The close waiter may itself be cancelled when the event
                # loop tears down mid-wait; finishing normally here keeps
                # asyncio's stream machinery from logging the cancelled
                # handler task.
                pass

    async def _dispatch(self, request: HTTPRequest) -> Tuple[int, bytes]:
        route = f"{request.method} {request.path}"
        try:
            status, body, extra = await self._route(request)
        except HTTPError as err:
            status, body, extra = err.status, {"error": err.message}, []
        except QueryRejected as err:
            status = 429
            body = {
                "error": str(err),
                "reason": err.reason,
                "trace_id": getattr(err, "trace_id", "") or "",
            }
            extra = [("Retry-After", str(self._retry_after_seconds()))]
        except ReproError as err:
            status, body, extra = 422, {"error": str(err)}, []
        except Exception as err:  # noqa: BLE001 - last-resort 500
            _log.warning("server.internal_error", route=route, error=str(err))
            status, body, extra = 500, {"error": f"internal error: {err}"}, []
        content_type = (
            "text/plain; version=0.0.4; charset=utf-8"
            if isinstance(body, str)
            else "application/json"
        )
        self._http_counter.inc(1.0, route=request.path, status=str(status))
        return status, render_response(
            status,
            body,
            content_type=content_type,
            headers=extra,
            keep_alive=request.keep_alive,
        )

    async def _route(
        self, request: HTTPRequest
    ) -> Tuple[int, Any, List[Tuple[str, str]]]:
        method, path = request.method, request.path
        if path == "/healthz":
            self._require(method, "GET")
            return 200, {"status": "ok"}, []
        if path == "/readyz":
            self._require(method, "GET")
            ready, detail = self.readiness()
            return (200 if ready else 503), detail, []
        if path == "/metrics":
            self._require(method, "GET")
            text = await self._in_aux(self.service.metrics.to_prometheus)
            return 200, text, []
        if path == "/flightz":
            self._require(method, "GET")
            return 200, self._flight_document(), []
        if path == "/query":
            self._require(method, "POST")
            return await self._handle_query(request)
        if path == "/mutate":
            self._require(method, "POST")
            return await self._handle_mutate(request)
        if path == "/topk":
            self._require(method, "GET")
            return await self._handle_topk(request)
        raise HTTPError(404, f"no route for {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HTTPError(405, f"use {expected}")

    async def _in_aux(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._aux, fn, *args
        )

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #

    async def _handle_query(
        self, request: HTTPRequest
    ) -> Tuple[int, dict, List[Tuple[str, str]]]:
        if self._draining:
            raise QueryRejected("shutdown", "server is draining")
        body = request.json()
        keywords = body.get("keywords")
        if not isinstance(keywords, (list, str)) or not keywords:
            raise HTTPError(400, "body needs a non-empty 'keywords' list")
        try:
            future = self.service.submit(
                keywords,
                algorithm=str(body.get("algorithm", "SKECa+")),
                epsilon=body.get("epsilon", 0.01),
                timeout=body.get("timeout"),
                explain=bool(body.get("explain", False)),
            )
        except QueryError as err:
            # Anything wrong with the request itself (bad keywords, an
            # unknown algorithm, a bad epsilon) is the client's fault.
            raise HTTPError(400, str(err)) from err
        # QueryRejected propagates to _dispatch's 429 translation — both
        # the immediate refusal above and a post-admission shed below.
        result = await asyncio.wrap_future(future)
        return self._result_document(result)

    def _result_document(
        self, result: ServedResult
    ) -> Tuple[int, dict, List[Tuple[str, str]]]:
        stats = result.stats
        document: Dict[str, Any] = {
            "keywords": list(result.request.keywords),
            "algorithm": stats.algorithm,
            "epsilon": result.request.epsilon,
            "cache_hit": stats.cache_hit,
            "degraded": stats.degraded,
            "quality": stats.quality,
            "elapsed_seconds": stats.total_seconds,
            "correlation_id": stats.correlation_id,
            "trace_id": stats.trace_id,
        }
        if result.explain is not None:
            document["explain"] = result.explain
        if result.group is None:
            document["status"] = "error"
            document["error"] = result.error or "query failed"
            status = 504 if "time budget" in (result.error or "") else 422
            return status, document, []
        group = result.group
        document["status"] = "degraded" if stats.degraded else "ok"
        document["diameter"] = group.diameter
        document["object_ids"] = list(group.object_ids)
        document["objects"] = self._object_details(group.object_ids)
        return 200, document, []

    def _object_details(self, oids) -> List[dict]:
        """Best-effort object records; a concurrently deleted oid is skipped."""
        view = self.service.engine.dataset
        details = []
        for oid in oids:
            try:
                obj = view[oid]
            except (KeyError, IndexError):
                continue
            details.append(
                {
                    "oid": obj.oid,
                    "x": obj.x,
                    "y": obj.y,
                    "keywords": sorted(obj.keywords),
                }
            )
        return details

    async def _handle_mutate(
        self, request: HTTPRequest
    ) -> Tuple[int, dict, List[Tuple[str, str]]]:
        if self._draining:
            raise QueryRejected("shutdown", "server is draining")
        body = request.json()
        inserts = self._parse_inserts(body.get("inserts", []))
        deletes = body.get("deletes", [])
        if not isinstance(deletes, list) or not all(
            isinstance(o, int) for o in deletes
        ):
            raise HTTPError(400, "'deletes' must be a list of integer oids")
        if not inserts and not deletes:
            raise HTTPError(400, "mutation body is empty")
        try:
            future = self.service.submit_mutation(
                inserts=inserts, deletes=deletes
            )
        except TypeError as err:
            raise HTTPError(
                409, "this server fronts an immutable (sealed) dataset"
            ) from err
        try:
            oids = await asyncio.wrap_future(future)
        except DatasetError as err:
            raise HTTPError(422, str(err)) from err
        return (
            200,
            {
                "oids": list(oids),
                "epoch": self.service.engine.epoch,
                "inserted": len(inserts),
                "deleted": len(deletes),
            },
            [],
        )

    @staticmethod
    def _parse_inserts(raw: Any) -> List[Tuple[float, float, List[str]]]:
        if not isinstance(raw, list):
            raise HTTPError(400, "'inserts' must be a list")
        inserts: List[Tuple[float, float, List[str]]] = []
        for item in raw:
            if isinstance(item, dict):
                triple = (item.get("x"), item.get("y"), item.get("keywords"))
            elif isinstance(item, (list, tuple)) and len(item) == 3:
                triple = tuple(item)
            else:
                raise HTTPError(
                    400,
                    "each insert must be [x, y, [keywords...]] or "
                    "{x, y, keywords}",
                )
            x, y, keywords = triple
            if (
                not isinstance(x, (int, float))
                or not isinstance(y, (int, float))
                or isinstance(x, bool)
                or isinstance(y, bool)
                or not isinstance(keywords, list)
                or not keywords
            ):
                raise HTTPError(
                    400, "insert needs numeric x, y and non-empty keywords"
                )
            inserts.append((float(x), float(y), [str(k) for k in keywords]))
        return inserts

    async def _handle_topk(
        self, request: HTTPRequest
    ) -> Tuple[int, dict, List[Tuple[str, str]]]:
        raw_keywords = request.query.get("keywords", [])
        keywords = [
            part.strip()
            for chunk in raw_keywords
            for part in chunk.split(",")
            if part.strip()
        ]
        if not keywords:
            raise HTTPError(400, "need ?keywords=a,b,...")
        try:
            k = int(request.param("k", "3"))
            epsilon = float(request.param("epsilon", "0.01"))
        except ValueError as err:
            raise HTTPError(400, f"bad numeric parameter: {err}") from err
        if not 1 <= k <= self.topk_limit:
            raise HTTPError(400, f"k must be in [1, {self.topk_limit}]")
        algorithm = request.param("algorithm", "SKECa+")
        policy = request.param("policy", "disjoint")
        if self.service.engine.kind == "scatter":
            # A scatter-gather router's cross-shard view has no columnar
            # compile surface; top-k would need a per-shard merge that
            # the extension does not implement yet.
            raise HTTPError(
                501, "top-k is not available on a sharded (scatter) engine"
            )

        def _solve():
            from ..extensions.topk import top_k_mck

            # A live engine's .dataset is the current merged view; top-k
            # compiles against it exactly like the algorithms do.
            return top_k_mck(
                self.service.engine.dataset,
                keywords,
                k,
                policy=policy,
                algorithm=algorithm,
                epsilon=epsilon,
            )

        try:
            groups = await self._in_aux(_solve)
        except QueryError as err:
            raise HTTPError(400, str(err)) from err
        return (
            200,
            {
                "keywords": keywords,
                "k": k,
                "policy": policy,
                "groups": [
                    {
                        "rank": rank,
                        "diameter": group.diameter,
                        "object_ids": list(group.object_ids),
                        "objects": self._object_details(group.object_ids),
                    }
                    for rank, group in enumerate(groups, start=1)
                ],
            },
            [],
        )

    def _flight_document(self) -> dict:
        flight = self.service.flight
        if flight is None:
            raise HTTPError(404, "no flight recorder is wired on this server")
        return {
            "stats": flight.stats(),
            "traces": [trace.as_dict() for trace in flight.traces()],
        }
