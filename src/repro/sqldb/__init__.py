"""``repro.sqldb`` — an in-process SQL engine with two execution profiles.

The engine stands in for the two database systems of the paper's
evaluation:

* ``Database("postgres")`` — the *blue elephant*: CTEs are materialised by
  default (PostgreSQL 12's optimisation barrier), operators materialise
  their outputs, views are inlined but re-run on demand, and
  ``CREATE MATERIALIZED VIEW`` caches results across queries.
* ``Database("umbra")`` — the beyond-main-memory system: CTEs and views are
  always inlined, plans are column-pruned end to end, and vectors are
  pipelined through operators without copies.

The SQL dialect covers everything the paper's transpiler emits; see
:mod:`repro.sqldb.parser` for the grammar.
"""

from repro.sqldb.catalog import (
    CTID,
    Catalog,
    ColumnStats,
    Table,
    TableStats,
    TrainedModel,
    View,
)
from repro.sqldb.dbapi import Connection, Cursor, connect
from repro.sqldb.engine import Database, Result
from repro.sqldb.faults import NO_FAULTS, Faults, SimulatedCrash
from repro.sqldb.profile import POSTGRES, UMBRA, Profile, profile_by_name
from repro.sqldb.stats import ExecStats, OpStats
from repro.sqldb.wal import WriteAheadLog, read_checkpoint, read_wal

__all__ = [
    "CTID",
    "Catalog",
    "ColumnStats",
    "Connection",
    "Cursor",
    "Database",
    "ExecStats",
    "Faults",
    "NO_FAULTS",
    "OpStats",
    "POSTGRES",
    "Profile",
    "Result",
    "SimulatedCrash",
    "Table",
    "TableStats",
    "TrainedModel",
    "UMBRA",
    "View",
    "WriteAheadLog",
    "connect",
    "profile_by_name",
    "read_checkpoint",
    "read_wal",
]
