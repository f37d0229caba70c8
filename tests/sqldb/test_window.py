"""Window functions (RANK / DENSE_RANK / ROW_NUMBER) — the paper's §5.2.2
mentions RANK as an alternative way to number one-hot categories."""

import pytest

from repro.errors import SQLBindError
from repro.sqldb import Database


@pytest.fixture(params=["postgres", "umbra"])
def db(request):
    database = Database(request.param)
    database.run_script(
        "CREATE TABLE scores (g text, v int);"
        "INSERT INTO scores VALUES "
        "('a', 10), ('a', 20), ('a', 20), ('b', 5), ('b', 7)"
    )
    return database


class TestWindowFunctions:
    def test_row_number_global(self, db):
        result = db.execute(
            "SELECT v, row_number() OVER (ORDER BY v) AS rn FROM scores "
            "ORDER BY rn"
        )
        assert result.column("rn") == [1, 2, 3, 4, 5]
        assert result.column("v") == [5, 7, 10, 20, 20]

    def test_rank_with_ties(self, db):
        result = db.execute(
            "SELECT v, rank() OVER (ORDER BY v) AS r FROM scores "
            "WHERE g = 'a' ORDER BY r"
        )
        assert result.rows == [(10, 1), (20, 2), (20, 2)]

    def test_dense_rank(self, db):
        result = db.execute(
            "SELECT v, dense_rank() OVER (ORDER BY v DESC) AS r FROM scores "
            "WHERE g = 'a' ORDER BY v"
        )
        assert dict(result.rows) == {10: 2, 20: 1}

    def test_partition_by(self, db):
        result = db.execute(
            "SELECT g, v, row_number() OVER (PARTITION BY g ORDER BY v) AS rn "
            "FROM scores ORDER BY g, v"
        )
        assert result.rows == [
            ("a", 10, 1), ("a", 20, 2), ("a", 20, 3),
            ("b", 5, 1), ("b", 7, 2),
        ]

    def test_onehot_rank_via_window(self, db):
        """The §5.2.2 alternative: category ranks from RANK()."""
        result = db.execute(
            "WITH fit AS (SELECT DISTINCT g FROM scores) "
            "SELECT g, rank() OVER (ORDER BY g) AS rank FROM fit ORDER BY g"
        )
        assert result.rows == [("a", 1), ("b", 2)]

    def test_window_result_usable_downstream(self, db):
        result = db.execute(
            "WITH numbered AS (SELECT g, v, "
            "row_number() OVER (ORDER BY v DESC) AS rn FROM scores) "
            "SELECT g, v FROM numbered WHERE rn = 1"
        )
        assert result.rows[0][1] == 20

    def test_mixed_type_column_orders_like_order_by(self, db):
        """Window ordering is the ORDER BY sorter: a mixed int/text key
        falls back to text order instead of raising ``TypeError``."""
        mixed = "(SELECT v AS x FROM scores UNION ALL SELECT g FROM scores) u"
        ordered = db.execute(f"SELECT x FROM {mixed} ORDER BY x").column("x")
        result = db.execute(
            "SELECT x, row_number() OVER (ORDER BY x) AS rn, "
            f"rank() OVER (ORDER BY x) AS r FROM {mixed} ORDER BY rn"
        )
        assert result.column("x") == ordered
        assert ordered == [10, 20, 20, 5, 7, "a", "a", "a", "b", "b"]
        assert result.column("r") == [1, 2, 2, 4, 5, 6, 6, 6, 9, 9]

    def test_window_in_where_rejected(self, db):
        with pytest.raises(SQLBindError):
            db.execute(
                "SELECT v FROM scores WHERE rank() OVER (ORDER BY v) = 1"
            )

    def test_unsupported_window_function(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT lag() OVER (ORDER BY v) FROM scores")

    def test_profiles_agree(self):
        query = (
            "SELECT g, v, rank() OVER (PARTITION BY g ORDER BY v) AS r "
            "FROM scores ORDER BY g, v, r"
        )
        results = []
        for profile in ("postgres", "umbra"):
            database = Database(profile)
            database.run_script(
                "CREATE TABLE scores (g text, v int);"
                "INSERT INTO scores VALUES ('a', 2), ('a', 1), ('b', 9)"
            )
            results.append(database.execute(query).rows)
        assert results[0] == results[1]
