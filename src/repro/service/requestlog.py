"""The replayable request log: strict JSONL of every accepted request.

A service session appends one :class:`RequestRecord` per accepted swap
— arrival time (relative to session start), source label, concrete
protocol, amount, and fee budget.  The log's header echoes the full
:class:`~repro.service.spec.ServiceSpec`, so a log is self-contained:
``repro replay LOG`` rebuilds the world from the echo and re-drives
every record through the same accept path the live session used,
reproducing outcomes exactly.

The file is :mod:`repro.serde` JSONL: a header record (schema id, spec
echo, record count), then one :class:`RequestRecord` per line, every
key required, canonical bytes — so ``dump → load → dump`` is
byte-identical and two sessions that accepted the same requests produce
byte-identical logs, the property the checkpoint/restore and replay
tests pin with a file-level compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .. import serde
from ..errors import ServiceError
from ..experiment.spec import FeeBudgetSpec
from .spec import ServiceSpec

#: Request-log format identifier (bump on incompatible schema changes).
LOG_SCHEMA = "repro-service-log/1"


@serde.exact
@dataclass(frozen=True)
class RequestRecord:
    """One accepted request, exactly as the session admitted it.

    ``seq`` is the session-wide accept index (== the swap's slot and
    engine swap id); ``at`` is the arrival time relative to session
    start.  ``source`` is the emitting source's name; ``protocol`` is
    always concrete, never ``"mixed"``.
    """

    seq: int
    at: float
    source: str
    protocol: str
    amount: int
    fee_budget: FeeBudgetSpec | None = None

    def to_dict(self) -> dict[str, Any]:
        return serde.dump(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RequestRecord":
        return serde.load(cls, data, "request record", ServiceError)


@serde.exact
@dataclass(frozen=True)
class _Header:
    spec: ServiceSpec
    records: int
    schema: str = LOG_SCHEMA


def dump_request_log(spec: ServiceSpec, records: Iterable[RequestRecord]) -> str:
    """Serialize a session's accepted requests: one header line, then
    one line per record in accept order."""
    records = list(records)
    return serde.dump_jsonl(_Header(spec, len(records)), records)


def load_request_log(text: str) -> tuple[ServiceSpec, list[RequestRecord]]:
    """Parse a request log produced by :func:`dump_request_log` (strict)."""
    header, records = serde.load_jsonl(
        text, _Header, RequestRecord, "records", ServiceError, "request log"
    )
    for index, record in enumerate(records):
        if record.seq != index:
            raise ServiceError(
                f"request records out of order on line {index + 2}: "
                f"seq {record.seq}, expected {index}"
            )
    return header.spec, records
