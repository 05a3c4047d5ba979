"""``repro.serve``: the async experiment service over the runner.

The long-lived front door to :mod:`repro.runner` (see ROADMAP
"simulation-as-a-service"): a stdlib-only asyncio HTTP/JSON API that
accepts experiment specs, validates them against the runner registry,
executes their cells through the :class:`~repro.runner.scheduler.Executor`
seam, and serves finished artifacts from a content-addressed result
store -- so identical queries, however many clients issue them, cost one
simulation.

* :mod:`repro.serve.http` -- hand-rolled HTTP/1.1 over asyncio streams;
* :mod:`repro.serve.jobs` -- spec validation, content hashing, the
  priority queue, in-flight dedup, and job execution;
* :mod:`repro.serve.store` -- the content-addressed result store with
  SHA-256 integrity envelopes verified on read;
* :mod:`repro.serve.quotas` -- per-client token-bucket admission;
* :mod:`repro.serve.metrics` -- the counters behind ``/v1/metrics``;
* :mod:`repro.serve.routes` -- the v1 route table and handlers;
* :mod:`repro.serve.app` -- wiring, the accept loop, and the
  signal-aware blocking entry point behind ``python -m repro serve``.

API reference, spec schema, and curl examples: ``docs/service.md``.

This package is the one place in the repository allowed to read wall
clocks and open sockets -- the :mod:`repro.analysis` invariant linter
scopes its determinism and isolation rules accordingly, keeping the
simulation modules locked down.
"""

from .app import DEFAULT_STATE_DIR, ServeApp
from .jobs import (
    Job,
    JobManager,
    JobSpec,
    canonical_payload,
    parse_spec,
    result_document,
    to_jsonable,
)
from .metrics import ServiceMetrics
from .quotas import QuotaRegistry, TokenBucket
from .store import DEFAULT_STORE_DIR, ResultStore, is_content_hash

__all__ = [
    "DEFAULT_STATE_DIR",
    "DEFAULT_STORE_DIR",
    "Job",
    "JobManager",
    "JobSpec",
    "QuotaRegistry",
    "ResultStore",
    "ServeApp",
    "ServiceMetrics",
    "TokenBucket",
    "canonical_payload",
    "is_content_hash",
    "parse_spec",
    "result_document",
    "to_jsonable",
]
