"""Service mode: the engine as a long-running, checkpointable swap server.

The public surface:

* :class:`SwapService` / :class:`~repro.service.service.ServiceResult` —
  the open-ended session (serve → drain → result) and its artifact
  (:mod:`repro.service.service`);
* :class:`ServiceSpec` / :class:`SourceSpec` — the declarative session
  schema (:mod:`repro.service.spec`);
* the source catalog — live traffic (:mod:`repro.service.sources`);
* :class:`RequestRecord` / :func:`dump_request_log` /
  :func:`load_request_log` — the replayable request log
  (:mod:`repro.service.requestlog`);
* :func:`service_preset_spec` — the named preset catalog
  (:mod:`repro.service.presets`).
"""

from .presets import service_preset_names, service_preset_spec
from .requestlog import RequestRecord, dump_request_log, load_request_log
from .service import CKPT_SCHEMA, SwapService
from .sources import PoissonSource
from .spec import ServiceSpec, SourceSpec, check_serve_limits

__all__ = [
    "CKPT_SCHEMA",
    "PoissonSource",
    "RequestRecord",
    "ServiceSpec",
    "SourceSpec",
    "SwapService",
    "check_serve_limits",
    "dump_request_log",
    "load_request_log",
    "service_preset_names",
    "service_preset_spec",
]
