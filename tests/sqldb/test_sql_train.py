"""The TRAIN statement: in-database ML training as iterative SQL aggregates.

The load-bearing checks are *differential*: the SQL-trained model must
agree with the numpy trainers in ``repro.learn`` — coefficients to
within 1e-6 on the healthcare shape (in practice they agree to machine
precision, because the iteration query mirrors the numpy arithmetic
term for term), and decision trees must be *structurally identical*
(same splits, same thresholds, same leaf predictions).

Beyond parity, TRAIN is a catalog write like any other, so the
transactional machinery must hold: rollback discards the model, commit
publishes it, WAL replay retrains it deterministically, checkpoints
carry it, concurrent sessions see it only after commit, and two
transactions training the same name resolve by first-committer-wins.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_healthcare
from repro.errors import (
    CatalogError,
    SerializationFailure,
    SQLError,
    SQLExecutionError,
)
from repro.learn import (
    DecisionTreeClassifier,
    LinearRegression,
    LogisticRegression,
)
from repro.sqldb import Database, Faults, SimulatedCrash

pytestmark = pytest.mark.train


# -- fixtures -----------------------------------------------------------------


def _load_xy(db, X, y, table="pts"):
    """CREATE + fill a feature table; column layout f0..fk, label."""
    d = len(X[0]) if X else 0
    columns = ", ".join(f"f{j} double precision" for j in range(d))
    db.execute(f"CREATE TABLE {table} ({columns}, label double precision)")
    placeholders = ", ".join("?" for _ in range(d + 1))
    db.executemany(
        f"INSERT INTO {table} VALUES ({placeholders})",
        [tuple(row) + (label,) for row, label in zip(X, y)],
    )


def _toy_classification(n=120, seed=3):
    """A separable-ish 3-feature binary problem with mixed scales."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.normal(0.0, 1.0, n),
            rng.normal(0.5, 0.7, n),
            rng.integers(0, 4, n).astype(float) / 3.0,
        ]
    )
    z = 1.3 * X[:, 0] - 0.9 * X[:, 1] + 0.6 * X[:, 2] - 0.2
    y = (z + rng.normal(0.0, 0.6, n) > 0).astype(float)
    return X, y


@pytest.fixture
def db():
    database = Database(optimize=True)
    yield database
    database.close()


def _read_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


@pytest.fixture(scope="module")
def healthcare_db(tmp_path_factory):
    """patients + histories loaded as SQL tables (small, fast slice)."""
    directory = tmp_path_factory.mktemp("hc")
    paths = generate_healthcare(str(directory), n_patients=150, seed=7)
    database = Database(optimize=True)
    database.execute(
        "CREATE TABLE patients (id int, first_name text, last_name text, "
        "race text, county text, num_children int, income double precision, "
        "age_group text, ssn text)"
    )
    _, patient_rows = _read_csv(paths["patients"])
    database.executemany(
        "INSERT INTO patients VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
        [
            (int(r[0]), r[1], r[2], r[3], r[4], int(r[5]), float(r[6]), r[7], r[8])
            for r in patient_rows
        ],
    )
    database.execute(
        "CREATE TABLE histories (smoker text, complications int, ssn text)"
    )
    _, history_rows = _read_csv(paths["histories"])
    database.executemany(
        "INSERT INTO histories VALUES (?, ?, ?)",
        [(r[0], int(r[1]), r[2]) for r in history_rows],
    )
    database.analyze()
    yield database
    database.close()


#: the healthcare featurisation used by the differential tests — a join
#: plus CASE featurisation, i.e. the shape the paper's transpiler emits
_HC_FEATURES = (
    "SELECT CASE WHEN h.smoker = 'yes' THEN 1.0 ELSE 0.0 END AS smoker_yes, "
    "p.num_children AS num_children, "
    "p.income / 100000.0 AS income_100k, "
    "CASE WHEN h.complications > 1 THEN 1.0 ELSE 0.0 END AS label "
    "FROM patients AS p JOIN histories AS h ON p.ssn = h.ssn"
)


def _hc_matrix(database):
    """The same rows the TRAIN query sees, as numpy arrays."""
    rows = database.execute(_HC_FEATURES).rows
    data = np.asarray(rows, dtype=np.float64)
    return data[:, :-1], data[:, -1]


# -- differential: SQL training == numpy training -----------------------------


class TestDifferentialLinear:
    def test_logistic_matches_numpy_on_healthcare(self, healthcare_db):
        healthcare_db.execute(
            f"TRAIN hc_logit USING ({_HC_FEATURES}) "
            "WITH (estimator = 'logistic_regression', max_iter = 80, "
            "lr = 0.5, c = 1.0)"
        )
        model = healthcare_db.model("hc_logit")
        X, y = _hc_matrix(healthcare_db)
        reference = LogisticRegression(max_iter=80, learning_rate=0.5, C=1.0)
        reference.fit(X, y)
        assert model.features == ("smoker_yes", "num_children", "income_100k")
        assert model.target == "label"
        np.testing.assert_allclose(
            np.asarray(model.coef), reference.coef_, rtol=0, atol=1e-6
        )
        assert abs(model.intercept - reference.intercept_) <= 1e-6
        healthcare_db.execute("DROP MODEL hc_logit")

    def test_linear_regression_matches_numpy(self, db):
        X, y = _toy_classification()
        _load_xy(db, X.tolist(), y.tolist())
        db.execute(
            "TRAIN lin USING (SELECT f0, f1, f2, label FROM pts) "
            "WITH (estimator = 'linear_regression', max_iter = 60, lr = 0.1)"
        )
        model = db.model("lin")
        reference = LinearRegression(max_iter=60, learning_rate=0.1)
        reference.fit(X, y)
        np.testing.assert_allclose(
            np.asarray(model.coef), reference.coef_, rtol=0, atol=1e-6
        )
        assert abs(model.intercept - reference.intercept_) <= 1e-6

    def test_same_iteration_count_and_convergence(self, db):
        """The SQL loop stops exactly when the numpy loop stops."""
        X, y = _toy_classification(n=60, seed=11)
        _load_xy(db, X.tolist(), y.tolist())
        db.execute(
            "TRAIN cv USING (SELECT f0, f1, f2, label FROM pts) "
            "WITH (max_iter = 400, lr = 0.5, tol = 0.001)"
        )
        model = db.model("cv")
        assert 0 < model.n_iter < 400  # converged via tol, not exhaustion
        reference = LogisticRegression(max_iter=400, learning_rate=0.5)
        reference.tol = 0.001
        reference.fit(X, y)
        np.testing.assert_allclose(
            np.asarray(model.coef), reference.coef_, rtol=0, atol=1e-6
        )

    def test_loaded_estimator_scores_like_numpy(self, healthcare_db):
        healthcare_db.execute(
            f"TRAIN hc_scored USING ({_HC_FEATURES}) WITH (max_iter = 40)"
        )
        estimator = healthcare_db.model_estimator("hc_scored")
        X, y = _hc_matrix(healthcare_db)
        reference = LogisticRegression(max_iter=40).fit(X, y)
        assert isinstance(estimator, LogisticRegression)
        np.testing.assert_array_equal(
            estimator.predict(X), reference.predict(X)
        )
        assert estimator.score(X, y) == pytest.approx(reference.score(X, y))
        healthcare_db.execute("DROP MODEL hc_scored")


class TestDifferentialTree:
    def test_tree_matches_numpy_on_small_fixture(self, db):
        X = [
            [1.0, 10.0],
            [2.0, 20.0],
            [3.0, 10.0],
            [4.0, 30.0],
            [5.0, 30.0],
            [6.0, 20.0],
            [7.0, 40.0],
            [8.0, 40.0],
        ]
        y = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
        _load_xy(db, X, y)
        db.execute(
            "TRAIN tiny USING (SELECT f0, f1, label FROM pts) "
            "WITH (estimator = 'decision_tree', max_depth = 3)"
        )
        model = db.model("tiny")
        reference = DecisionTreeClassifier(max_depth=3)
        reference.fit(np.asarray(X), np.asarray(y))
        assert model.tree == reference.to_tuples()

    def test_tree_matches_numpy_on_healthcare(self, healthcare_db):
        healthcare_db.execute(
            f"TRAIN hc_tree USING ({_HC_FEATURES}) "
            "WITH (estimator = 'decision_tree', max_depth = 3)"
        )
        model = healthcare_db.model("hc_tree")
        X, y = _hc_matrix(healthcare_db)
        reference = DecisionTreeClassifier(max_depth=3)
        reference.fit(X, y)
        assert model.tree == reference.to_tuples()
        estimator = healthcare_db.model_estimator("hc_tree")
        np.testing.assert_array_equal(
            estimator.predict(X), reference.predict(X)
        )
        healthcare_db.execute("DROP MODEL hc_tree")

    def test_quantile_thresholds_match(self, db):
        """> max_thresholds distinct values exercises the quantile path."""
        rng = np.random.default_rng(5)
        X = rng.normal(0.0, 1.0, (90, 1))
        y = (X[:, 0] > 0.3).astype(float)
        _load_xy(db, X.tolist(), y.tolist())
        db.execute(
            "TRAIN quant USING (SELECT f0, label FROM pts) "
            "WITH (estimator = 'decision_tree', max_depth = 2, "
            "max_thresholds = 8)"
        )
        reference = DecisionTreeClassifier(max_depth=2, max_thresholds=8)
        reference.fit(X, y)
        assert db.model("quant").tree == reference.to_tuples()


# -- hypothesis properties ----------------------------------------------------

_feature = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def _training_sets(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    rows = draw(
        st.lists(
            st.tuples(_feature, _feature, st.integers(min_value=0, max_value=1)),
            min_size=n,
            max_size=n,
        )
    )
    return [(a, b, float(lbl)) for a, b, lbl in rows]


class TestProperties:
    @given(
        rows=_training_sets(),
        lr=st.floats(min_value=0.01, max_value=0.3),
        estimator=st.sampled_from(["logistic_regression", "linear_regression"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_training_never_increases_loss(self, rows, lr, estimator):
        """Full-batch descent: L(w_final) <= L(w0) for any sane lr.

        ``model.loss`` records the loss at the weights *entering* the
        last iteration, so ``max_iter=1`` yields exactly L(w0).
        """
        losses = {}
        for iters in (1, 12):
            database = Database(optimize=True)
            try:
                _load_xy(database, [r[:2] for r in rows], [r[2] for r in rows])
                database.execute(
                    "TRAIN m USING (SELECT f0, f1, label FROM pts) WITH ("
                    f"estimator = '{estimator}', max_iter = {iters}, lr = {lr!r})"
                )
                losses[iters] = database.model("m").loss
            finally:
                database.close()
        assert losses[12] <= losses[1] + 1e-9


# -- statement surface & errors -----------------------------------------------


class TestTrainSurface:
    def _fill(self, db):
        X, y = _toy_classification(n=30, seed=2)
        _load_xy(db, X.tolist(), y.tolist())

    def test_train_with_parameters(self, db):
        self._fill(db)
        result = db.execute(
            "TRAIN pm USING (SELECT f0, label FROM pts WHERE f0 > ?) "
            "WITH (max_iter = ?)",
            (-10.0, 4),
        )
        assert result.rowcount == 4  # rowcount reports iterations run
        assert db.model("pm").n_iter == 4

    def test_retrain_replaces_model(self, db):
        self._fill(db)
        db.execute("TRAIN r USING (SELECT f0, label FROM pts) WITH (max_iter = 2)")
        db.execute("TRAIN r USING (SELECT f0, label FROM pts) WITH (max_iter = 5)")
        assert db.model("r").n_iter == 5
        assert db.model_names() == ["r"]

    def test_target_option_reorders_columns(self, db):
        self._fill(db)
        db.execute(
            "TRAIN t USING (SELECT label, f0, f1 FROM pts) "
            "WITH (target = 'label', max_iter = 2)"
        )
        assert db.model("t").features == ("f0", "f1")
        assert db.model("t").target == "label"

    def test_errors(self, db):
        self._fill(db)
        cases = [
            ("TRAIN e USING (SELECT f0, label FROM pts) WITH (estimator = 'svm')", "estimator"),
            ("TRAIN e USING (SELECT f0, label FROM pts) WITH (bogus = 1)", "bogus"),
            ("TRAIN e USING (SELECT f0, label FROM pts) WITH (lr = 0.1, learning_rate = 0.2)", "alias"),
            ("TRAIN e USING (SELECT f0, f0 FROM pts)", "duplicate"),
            ("TRAIN e USING (SELECT f0, label FROM pts) WITH (target = 'nope')", "not in the query output"),
            ("TRAIN e USING (SELECT label FROM pts)", "at least one feature"),
            ("TRAIN e USING (SELECT f0, label FROM pts WHERE f0 > 99) WITH (max_iter = 1)", "no rows"),
            ("TRAIN e USING (SELECT f0, f1 FROM pts) WITH (estimator = 'decision_tree')", "0/1 labels"),
            ("TRAIN e USING (SELECT f0, label FROM pts) WITH (c = -1.0)", "positive"),
        ]
        for sql, fragment in cases:
            with pytest.raises(SQLExecutionError, match=fragment):
                db.execute(sql)
        assert db.model_names() == []

    def test_syntax_requires_using(self, db):
        with pytest.raises(SQLError):
            db.execute("TRAIN broken (SELECT 1)")

    def test_name_collisions_with_tables(self, db):
        self._fill(db)
        with pytest.raises(CatalogError):
            db.execute("TRAIN pts USING (SELECT f0, label FROM pts)")
        db.execute("TRAIN m USING (SELECT f0, label FROM pts) WITH (max_iter = 1)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE m (a int)")

    def test_drop_model(self, db):
        self._fill(db)
        db.execute("TRAIN d USING (SELECT f0, label FROM pts) WITH (max_iter = 1)")
        db.execute("DROP MODEL d")
        assert db.model_names() == []
        with pytest.raises(CatalogError):
            db.execute("DROP MODEL d")
        db.execute("DROP MODEL IF EXISTS d")  # no error
        with pytest.raises(CatalogError):
            db.model("d")


# -- transactions, durability, concurrency ------------------------------------


def _seed_points(database, n=40):
    database.execute("CREATE TABLE pts (x double precision, y int)")
    database.executemany(
        "INSERT INTO pts VALUES (?, ?)",
        [(float(i % 7) / 7.0, int(i % 2)) for i in range(n)],
    )


_TRAIN_PTS = "TRAIN m USING (SELECT x, y FROM pts) WITH (max_iter = 5)"


class TestTransactions:
    def test_rollback_discards_model(self, db):
        _seed_points(db)
        db.execute("BEGIN")
        db.execute(_TRAIN_PTS)
        assert db.model_names() == ["m"]
        db.execute("ROLLBACK")
        assert db.model_names() == []

    def test_rollback_restores_dropped_model(self, db):
        _seed_points(db)
        db.execute(_TRAIN_PTS)
        coef = db.model("m").coef
        db.execute("BEGIN")
        db.execute("DROP MODEL m")
        assert db.model_names() == []
        db.execute("ROLLBACK")
        assert db.model("m").coef == coef

    def test_uncommitted_model_invisible_to_peer(self, db):
        _seed_points(db)
        writer, reader = db.session(), db.session()
        db.execute("BEGIN", session=writer)
        db.execute(_TRAIN_PTS, session=writer)
        assert db.model_names(session=reader) == []
        db.execute("COMMIT", session=writer)
        assert db.model_names(session=reader) == ["m"]

    def test_first_committer_wins_on_model_name(self, db):
        """Two transactions training the same name: the later committer
        gets a serialization failure and the first model survives."""
        _seed_points(db)
        winner, loser = db.session(), db.session()
        db.execute("BEGIN", session=loser)
        db.execute("SELECT count(*) FROM pts", session=loser)  # pin snapshot
        db.execute(
            "TRAIN m USING (SELECT x, y FROM pts) WITH (max_iter = 3)",
            session=winner,  # autocommits; stamps the model's version
        )
        db.execute(
            "TRAIN m USING (SELECT x, y FROM pts) WITH (max_iter = 9)",
            session=loser,
        )
        with pytest.raises(SerializationFailure):
            db.execute("COMMIT", session=loser)
        assert db.model("m").n_iter == 3


class TestDurability:
    def test_committed_model_survives_reopen(self, tmp_path):
        wal = str(tmp_path / "train.wal")
        database = Database(optimize=True, wal_path=wal)
        _seed_points(database)
        database.execute(_TRAIN_PTS)
        expected = database.model("m")
        database.close()
        recovered = Database(optimize=True, wal_path=wal)
        try:
            # WAL replay re-runs TRAIN; determinism gives identical weights
            assert recovered.model("m").coef == expected.coef
            assert recovered.model("m").intercept == expected.intercept
        finally:
            recovered.close()

    def test_checkpoint_carries_model(self, tmp_path):
        wal = str(tmp_path / "ckpt.wal")
        database = Database(optimize=True, wal_path=wal)
        _seed_points(database)
        database.execute(_TRAIN_PTS)
        expected = database.model("m").coef
        database.execute("CHECKPOINT")
        database.close()
        recovered = Database(optimize=True, wal_path=wal)
        try:
            assert recovered.model("m").coef == expected
        finally:
            recovered.close()

    def test_crash_before_append_loses_unacked_train(self, tmp_path):
        wal = str(tmp_path / "crash1.wal")
        faults = Faults()
        database = Database(optimize=True, wal_path=wal, faults=faults)
        _seed_points(database)
        faults.arm("wal.append.before", "crash")
        with pytest.raises(SimulatedCrash):
            database.execute(_TRAIN_PTS)
        database.close()
        recovered = Database(optimize=True, wal_path=wal)
        try:
            assert recovered.model_names() == []  # never acknowledged
            assert recovered.execute("SELECT count(*) FROM pts").rows == [(40,)]
        finally:
            recovered.close()

    def test_crash_after_fsync_keeps_train(self, tmp_path):
        wal = str(tmp_path / "crash2.wal")
        oracle = Database(optimize=True)
        _seed_points(oracle)
        oracle.execute(_TRAIN_PTS)
        expected = oracle.model("m").coef
        oracle.close()

        faults = Faults()
        database = Database(optimize=True, wal_path=wal, faults=faults)
        _seed_points(database)
        faults.arm("wal.fsync.after", "crash")
        with pytest.raises(SimulatedCrash):
            database.execute(_TRAIN_PTS)
        database.close()
        recovered = Database(optimize=True, wal_path=wal)
        try:
            # the fsync completed before the crash: the TRAIN is durable
            assert recovered.model("m").coef == expected
        finally:
            recovered.close()
