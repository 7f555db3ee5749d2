"""Multi-tenant simulation service with a fingerprint-keyed result
cache.

The paper's workload only pays off at scale behind a service that
queues, schedules and *deduplicates* runs; this package is that layer
over the existing experiment pool and every execution backend:

* :mod:`~repro.service.jobs` — the job lifecycle objects,
* :mod:`~repro.service.admission` — per-tenant quotas over a strict
  priority queue,
* :mod:`~repro.service.cache` — the fingerprint-keyed result cache on
  the :class:`~repro.telemetry.runs.RunRegistry`, with single-flight
  coalescing of identical in-flight configs,
* :mod:`~repro.service.executor` — config normalization (cache
  identity) and synchronous execution on any backend,
* :mod:`~repro.service.scheduler` — the asyncio
  :class:`SimulationService` tying admission, cache and the bounded
  worker pool together,
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — the
  JSON-over-HTTP endpoint (``repro serve``) and its blocking client
  (``repro submit/jobs/cancel``).
"""

from .admission import AdmissionController, TenantQuota
from .cache import InFlightEntry, ResultCache, SingleFlight
from .executor import (
    ExecutionOutcome,
    TRANSPORTS,
    build_simulation,
    execute_config,
    normalize_config,
)
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SOURCE_CACHE,
    SOURCE_COALESCED,
    SOURCE_EXECUTION,
    TERMINAL,
    Job,
    result_summary,
)
from .scheduler import ServiceConfig, SimulationService
from .server import ServiceServer, ServiceThread
from .client import DEFAULT_PORT, ServiceClient, parse_server

__all__ = [
    "AdmissionController",
    "TenantQuota",
    "InFlightEntry",
    "ResultCache",
    "SingleFlight",
    "ExecutionOutcome",
    "TRANSPORTS",
    "build_simulation",
    "execute_config",
    "normalize_config",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL",
    "SOURCE_EXECUTION",
    "SOURCE_CACHE",
    "SOURCE_COALESCED",
    "Job",
    "result_summary",
    "ServiceConfig",
    "SimulationService",
    "ServiceServer",
    "ServiceThread",
    "DEFAULT_PORT",
    "ServiceClient",
    "parse_server",
]
