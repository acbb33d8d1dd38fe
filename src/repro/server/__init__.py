"""Network serving tier: asyncio HTTP/JSON API over the query service.

The package is dependency-light by design — :mod:`repro.server.http`
hand-rolls the HTTP/1.1 subset a JSON API needs over asyncio streams,
:mod:`repro.server.app` mounts the query/mutate/top-k/health/metrics
routes on a :class:`~repro.serving.QueryService`.  ``mck bench --http``
(:mod:`repro.bench`) drives it with open-loop Poisson traffic.
"""

from .app import MCKServer, ServerHandle
from .http import HTTPError, HTTPRequest, read_request, render_response

__all__ = [
    "MCKServer",
    "ServerHandle",
    "HTTPError",
    "HTTPRequest",
    "read_request",
    "render_response",
]
