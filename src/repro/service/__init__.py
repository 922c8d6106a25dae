"""repro.service — HTTP frontend + distributed sweep coordination.

The serving layer of the production architecture: a threaded,
stdlib-only HTTP server (:class:`ScenarioServer`, CLI ``repro serve``)
that answers any previously seen scenario straight from a
:mod:`repro.store` backend with zero simulation, and funnels every
cold cell through one :class:`~repro.service.queue.WorkQueue` so it is
simulated exactly once no matter how many requests, jobs or machines
name it.

One consumer, :class:`~repro.service.worker.SweepWorker`, drains the
queue over either of two transports:

* in-process, straight from the server's :class:`WorkQueue` — the
  local compute of ``repro serve --jobs N`` (the standalone
  deployment);
* over HTTP — ``repro worker --server URL`` (the distributed
  deployment) pulls serialized scenarios over ``GET /queue/lease`` and
  pushes ``(fingerprint, payload)`` pairs home over
  ``POST /queue/complete``.

For multi-core serving, :class:`~repro.service.prefork.PreforkServer`
(``repro serve --procs K``) runs K ScenarioServer processes behind one
``SO_REUSEPORT`` port, each owning the write path of its shard subset
of a :class:`~repro.store.sharded.ShardedStore`.

:class:`~repro.service.client.ServiceClient` is the matching urllib
client: ``client.run(scenario)`` / ``client.run_sweep(grid)`` mirror
the local ``run_scenario``/``run_sweep`` API remotely, and
``client.submit_sweep(grid)`` / ``client.wait(job_id)`` drive
asynchronous distributed sweeps.
"""

from __future__ import annotations

from repro.service.client import RetryPolicy, ServiceClient
from repro.service.prefork import PreforkServer
from repro.service.queue import Lease, WorkQueue
from repro.service.server import ScenarioServer
from repro.service.spec import scenario_from_request, validate_scenario
from repro.service.worker import SweepWorker

__all__ = [
    "Lease",
    "PreforkServer",
    "RetryPolicy",
    "ScenarioServer",
    "ServiceClient",
    "SweepWorker",
    "WorkQueue",
    "scenario_from_request",
    "validate_scenario",
]
