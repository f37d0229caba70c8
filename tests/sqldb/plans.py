"""The text of ``EXPLAIN [ANALYZE]`` through any connection kind."""


def explain(conn, sql, params=None, analyze=False) -> str:
    """Run ``EXPLAIN [ANALYZE] sql`` through *conn* (a ``Database`` or any
    connection with ``run_script``) and join its ``QUERY PLAN`` rows."""
    head = "EXPLAIN ANALYZE " if analyze else "EXPLAIN "
    (result,) = conn.run_script(head + sql, params)
    assert result.columns == ["QUERY PLAN"]
    return "\n".join(line for (line,) in result.rows)
