"""The campaign datastore: every campaign, benchmark, and sweep in one
queryable SQLite database.

Sweep campaigns and benchmark runs used to scatter per-point JSON files
and one in-memory aggregate; this subsystem gives them a durable home —
a versioned SQLite schema (campaigns → points → metrics → artifacts,
WAL mode, foreign keys, indexed metric columns) behind a typed
:class:`CampaignStore` API:

* transactional :meth:`~CampaignStore.append_point`, safe under
  concurrent multi-process appenders (the distributed-execution shape:
  workers on separate hosts appending points keyed by campaign id);
* byte-exact artifact recovery — :meth:`~CampaignStore.get_artifact`
  returns exactly the serialized ``ExperimentResult`` that was stored;
* indexed predicate queries — :meth:`~CampaignStore.query` compiles
  ``"commit_rate < 0.5 AND protocol='nolan'"`` (:mod:`repro.store.query`)
  into indexed SQL;
* resume-from-store — ``SweepRunner(spec, store=...)`` skips points
  whose stored spec echo matches, byte-identical to a fresh run;
* cross-run regression tracking — :func:`compare_campaigns`
  (:mod:`repro.store.compare`) joins two campaigns by expansion
  coordinates and flags directed metric regressions;
* importers for existing artifacts — :func:`ingest_paths`
  (:mod:`repro.store.ingest`).

CLI surface: ``repro sweep --store DB``, ``repro query EXPR --db DB``,
``repro compare DB_A DB_B``, ``repro store ingest|list|artifact``.
"""

from .compare import compare_campaigns
from .ingest import ingest_paths
from .query import compile_query, parse_query
from .schema import SCHEMA_VERSION
from .store import CampaignStore

__all__ = [
    "CampaignStore",
    "SCHEMA_VERSION",
    "compare_campaigns",
    "compile_query",
    "ingest_paths",
    "parse_query",
]
