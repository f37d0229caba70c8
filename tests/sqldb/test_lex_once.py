"""Each statement is lexed at most once on its way to a plan.

``Database._prepare`` derives the plan-cache key and the placeholder count
from one token list (``normalize_tokens``) and hands the same list to the
parser on a plan-cache miss.  These tests count the lexer's and the
parser's calls at the names the engine and the parser bind.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.connectors import PostgresqlConnector
from repro.datasets import generate_healthcare
from repro.inspection import NoBiasIntroducedFor, PipelineInspector
from repro.pipelines import healthcare_source
from repro.sqldb import Database
from repro.sqldb import engine, lexer


@pytest.fixture
def calls(monkeypatch):
    """Count lexer calls wherever a ``repro`` module binds ``tokenize``,
    and the engine's calls of ``parse_script``."""
    counts = {"tokenize": 0, "parse_script": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    original = lexer.tokenize
    lexed = counting("tokenize", original)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "tokenize", None) is original:
            monkeypatch.setattr(module, "tokenize", lexed)
    monkeypatch.setattr(
        engine, "parse_script", counting("parse_script", engine.parse_script)
    )

    def take():
        seen = dict(counts)
        counts.update(tokenize=0, parse_script=0)
        return seen

    return take


def _db(plan_cache_size=128):
    db = Database(plan_cache_size=plan_cache_size)
    db.run_script("CREATE TABLE t (a int, s text); INSERT INTO t VALUES (1, 'x')")
    return db


SQL = "SELECT a, s FROM t WHERE a = 1"


def test_cold_statement_is_lexed_once(calls):
    db = _db()
    calls()
    assert db.execute(SQL).rows == [(1, "x")]
    assert calls() == {"tokenize": 1, "parse_script": 1}


def test_memo_hit_is_not_lexed(calls):
    db = _db()
    db.execute(SQL)
    calls()
    assert db.execute(SQL).rows == [(1, "x")]
    assert calls() == {"tokenize": 0, "parse_script": 0}


def test_plan_cache_hit_under_other_whitespace_is_lexed_once_and_not_parsed(calls):
    db = _db()
    db.execute(SQL)
    calls()
    assert db.execute("select a,s\n  from t where a=1").rows == [(1, "x")]
    assert calls() == {"tokenize": 1, "parse_script": 0}
    assert db.plan_cache.stats["hits"] == 1


def test_disabled_cache_lexes_once(calls):
    db = _db(plan_cache_size=0)
    calls()
    assert db.execute(SQL).rows == [(1, "x")]
    assert calls() == {"tokenize": 1, "parse_script": 1}
    # with parameters the count is normalised first, from the same tokens
    assert db.execute("SELECT s FROM t WHERE a = ?", (1,)).rows == [("x",)]
    assert calls() == {"tokenize": 1, "parse_script": 1}


def test_reset_per_pipeline_run_never_hits_the_plan_cache(tmp_path):
    generate_healthcare(str(tmp_path), n_patients=150, seed=0)
    connector = PostgresqlConnector()
    source = healthcare_source(str(tmp_path), upto="pandas")
    for _ in range(2):
        PipelineInspector.on_pipeline_from_string(source, "<hc>").add_check(
            NoBiasIntroducedFor(["race"])
        ).execute_in_sql(dbms_connector=connector)
        stats = connector.plan_cache_stats
        assert stats["misses"] > 0
        assert stats["hits"] == 0
