"""In-database ML training: gradient descent and CART growth as SQL aggregates.

The paper transpiles sklearn *preprocessing and inference* into SQL but
stops short of training.  This module closes that loop along the lines of
sql4ml (gradient descent expressed as declarative SQL over the feature
table) and JoinBoost (trees grown using only SQL aggregates):

* **Linear models** (``logistic_regression``, ``linear_regression``) run
  full-batch gradient descent as a Python-driven iterate-until-converged
  loop.  Each iteration is ONE aggregate query — per-feature
  ``SUM(error * f_j)`` gradients, ``SUM(error)`` for the intercept, the
  training loss and ``COUNT(*)`` — with the current weights carried into
  the query as literals.  The arithmetic mirrors
  ``repro.learn.linear_model`` exactly (same sigmoid-via-tanh formula,
  same update and stopping rule), so the SQL-trained coefficients agree
  with the numpy trainer to high precision.

* **Decision trees** (``decision_tree``) grow JoinBoost-style: each node
  issues one ``GROUP BY feature`` histogram query per feature
  (``value, COUNT(*), SUM(target)``), from which candidate thresholds,
  gini gains and the numpy trainer's exact tie-breaking are reproduced in
  Python over the (exact, integer) aggregate counts.  The grown tree is
  structurally identical to ``repro.learn.tree.DecisionTreeClassifier``
  on the same data.

Everything flows through the hosting engine via an injected ``run``
callback, so MVCC snapshots, WAL logging and indexes apply unchanged.

Deliberately out of scope: no neural networks in SQL — backprop through
matrix-shaped hidden layers has no reasonable aggregate-query form here.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.errors import SQLExecutionError
from repro.learn.tree import _gini
from repro.sqldb import ast_nodes as ast
from repro.sqldb.catalog import TrainedModel

__all__ = ["train_model", "model_to_estimator"]

#: clamp for ln() in the logistic loss: tanh saturates exactly to +/-1
#: for |z| > ~19, where ln(0) would otherwise go non-finite (NULL)
_LOSS_EPS = 1e-12

_LOGISTIC_NAMES = {"logistic", "logistic_regression", "logisticregression"}
_LINEAR_NAMES = {
    "linear",
    "linear_regression",
    "linearregression",
    "sgd_regressor",
    "sgdregressor",
}
_TREE_NAMES = {
    "tree",
    "decision_tree",
    "decisiontree",
    "decisiontreeclassifier",
}

#: the engine-supplied query runner: Select AST in, Result out
RunQuery = Callable[[ast.Select], Any]


# -- small AST builders -------------------------------------------------------


def _lit(value: Any) -> ast.Literal:
    return ast.Literal(value)


def _col(name: str) -> ast.ColumnRef:
    return ast.ColumnRef(name)


def _mul(left: ast.Expr, right: ast.Expr) -> ast.BinaryOp:
    return ast.BinaryOp("*", left, right)


def _add(left: ast.Expr, right: ast.Expr) -> ast.BinaryOp:
    return ast.BinaryOp("+", left, right)


def _sub(left: ast.Expr, right: ast.Expr) -> ast.BinaryOp:
    return ast.BinaryOp("-", left, right)


def _sum(expr: ast.Expr) -> ast.FuncCall:
    return ast.FuncCall("sum", (expr,))


def _count_star() -> ast.FuncCall:
    return ast.FuncCall("count", star=True)


def _clamped_ln(expr: ast.Expr) -> ast.FuncCall:
    clamped = ast.FuncCall(
        "least",
        (
            ast.FuncCall("greatest", (expr, _lit(_LOSS_EPS))),
            _lit(1.0 - _LOSS_EPS),
        ),
    )
    return ast.FuncCall("ln", (clamped,))


def _value(result: Any, column: str) -> Any:
    return result.rows[0][result.columns.index(column)]


# -- options ------------------------------------------------------------------


def _pop_float(options: dict, key: str, default: float) -> float:
    raw = options.pop(key, default)
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise SQLExecutionError(
            f"TRAIN option {key!r} must be a number, got {raw!r}",
            sqlstate="22023",
        ) from None


def _pop_int(options: dict, key: str, default: int) -> int:
    raw = options.pop(key, default)
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise SQLExecutionError(
            f"TRAIN option {key!r} must be an integer, got {raw!r}",
            sqlstate="22023",
        ) from None


def _reject_unknown(options: dict) -> None:
    if options:
        names = ", ".join(sorted(options))
        raise SQLExecutionError(
            f"unknown TRAIN option(s): {names}", sqlstate="22023"
        )


def _pop_learning_rate(options: dict, default: float) -> float:
    if "learning_rate" in options and "lr" in options:
        raise SQLExecutionError(
            "TRAIN options lr and learning_rate are aliases; give one",
            sqlstate="22023",
        )
    key = "learning_rate" if "learning_rate" in options else "lr"
    return _pop_float(options, key, default)


# -- schema discovery ---------------------------------------------------------


def _discover_columns(query: ast.Select, run: RunQuery) -> list[str]:
    probe = ast.Select(
        items=[ast.SelectItem(ast.Star())],
        sources=[ast.SubquerySource(query, "__train_src")],
        limit=1,
    )
    columns = list(run(probe).columns)
    if len(set(columns)) != len(columns):
        raise SQLExecutionError(
            "TRAIN query has duplicate output columns; alias them apart"
        )
    return columns


def _split_features(
    columns: list[str], target: Optional[str]
) -> tuple[list[str], str]:
    """Feature/target split: explicit ``target`` option, else the last
    output column is the target and everything before it a feature."""
    if target is None:
        target = columns[-1]
    elif target not in columns:
        raise SQLExecutionError(
            f"TRAIN target column {target!r} is not in the query output"
        )
    features = [name for name in columns if name != target]
    if not features:
        raise SQLExecutionError(
            "TRAIN query must produce at least one feature column "
            "besides the target"
        )
    return features, target


# -- linear-family training ---------------------------------------------------


def _linear_iteration_query(
    query: ast.Select,
    features: list[str],
    target: str,
    weights: list[float],
    intercept: float,
    logistic: bool,
) -> ast.Select:
    """One gradient-descent iteration as a single aggregate query.

    The inner projection evaluates the prediction once per row with the
    current weights inlined as literals; the outer aggregate folds the
    per-feature gradient sums, the intercept gradient sum, the row count
    and the training-loss sum in one pass.
    """
    z: ast.Expr = _lit(intercept)
    for weight, feature in zip(weights, features):
        z = _add(z, _mul(_lit(weight), _col(feature)))
    if logistic:
        # p = sigmoid(z) written exactly as the numpy trainer computes it:
        # 0.5 * (1 + tanh(0.5 * z))
        prediction: ast.Expr = _mul(
            _lit(0.5),
            _add(_lit(1.0), ast.FuncCall("tanh", (_mul(_lit(0.5), z),))),
        )
    else:
        prediction = z
    inner_items = [
        ast.SelectItem(prediction, "__p"),
        ast.SelectItem(_col(target), "__y"),
    ]
    feature_aliases = []
    for j, feature in enumerate(features):
        alias = f"__x{j}"
        feature_aliases.append(alias)
        inner_items.append(ast.SelectItem(_col(feature), alias))
    inner = ast.Select(
        items=inner_items,
        sources=[ast.SubquerySource(query, "__train_src")],
    )
    error = _sub(_col("__p"), _col("__y"))
    if logistic:
        # negative log-likelihood; ln() inputs clamped away from 0
        loss_term: ast.Expr = ast.UnaryOp(
            "-",
            _add(
                _mul(_col("__y"), _clamped_ln(_col("__p"))),
                _mul(
                    _sub(_lit(1.0), _col("__y")),
                    _clamped_ln(_sub(_lit(1.0), _col("__p"))),
                ),
            ),
        )
    else:
        loss_term = _mul(error, error)
    outer_items = [
        ast.SelectItem(_count_star(), "__n"),
        ast.SelectItem(_sum(error), "__gb"),
    ]
    for j, alias in enumerate(feature_aliases):
        outer_items.append(
            ast.SelectItem(_sum(_mul(error, _col(alias))), f"__g{j}")
        )
    outer_items.append(ast.SelectItem(_sum(loss_term), "__loss"))
    return ast.Select(
        items=outer_items,
        sources=[ast.SubquerySource(inner, "__errors")],
    )


def _train_linear_family(
    name: str,
    query: ast.Select,
    features: list[str],
    target: str,
    options: dict,
    run: RunQuery,
    logistic: bool,
) -> TrainedModel:
    """Gradient descent matching ``repro.learn.linear_model`` step for
    step: same gradients, same update, same stopping rule — only the
    per-iteration sums come from SQL instead of numpy dot products."""
    learning_rate = _pop_learning_rate(options, 0.5 if logistic else 0.1)
    max_iter = _pop_int(options, "max_iter", 500)
    tol = _pop_float(options, "tol", 1e-6)
    c_value = _pop_float(options, "c", 1.0) if logistic else None
    _reject_unknown(options)
    if logistic and c_value is not None and c_value <= 0.0:
        raise SQLExecutionError(
            "TRAIN option c must be positive", sqlstate="22023"
        )

    d = len(features)
    weights = [0.0] * d
    intercept = 0.0
    n_iter = 0
    loss: Optional[float] = None
    for _ in range(max_iter):
        result = run(
            _linear_iteration_query(
                query, features, target, weights, intercept, logistic
            )
        )
        n = int(_value(result, "__n"))
        if n == 0:
            raise SQLExecutionError(
                f"TRAIN {name}: training query returned no rows"
            )
        gradient_sums = [float(_value(result, f"__g{j}")) for j in range(d)]
        intercept_sum = float(_value(result, "__gb"))
        loss_sum = float(_value(result, "__loss"))
        if logistic:
            l2 = 1.0 / (c_value * n)
            gradients = [
                g_sum / n + l2 * weight
                for g_sum, weight in zip(gradient_sums, weights)
            ]
            loss = loss_sum / n
        else:
            gradients = [g_sum / n for g_sum in gradient_sums]
            loss = loss_sum / (2.0 * n)
        gradient_b = intercept_sum / n
        weights = [
            weight - learning_rate * gradient
            for weight, gradient in zip(weights, gradients)
        ]
        intercept -= learning_rate * gradient_b
        n_iter += 1
        if max(abs(g) for g in gradients + [gradient_b]) < tol:
            break

    hyperparams = {
        "lr": learning_rate,
        "max_iter": max_iter,
        "tol": tol,
    }
    if logistic:
        hyperparams["c"] = c_value
    return TrainedModel(
        name=name,
        estimator="logistic_regression" if logistic else "linear_regression",
        features=tuple(features),
        target=target,
        hyperparams=tuple(sorted(hyperparams.items())),
        coef=tuple(weights),
        intercept=intercept,
        n_iter=n_iter,
        loss=loss,
    )


# -- decision-tree training ---------------------------------------------------


def _histogram_query(
    query: ast.Select,
    feature: str,
    target: str,
    path: list[tuple[str, float, bool]],
) -> ast.Select:
    """Per-node candidate-split aggregates for one feature, JoinBoost
    style: ``feature value, COUNT(*), SUM(target)`` grouped by value,
    restricted to the node's root-to-here split path."""
    where: Optional[ast.Expr] = None
    for split_feature, threshold, is_left in path:
        predicate = ast.BinaryOp(
            "<=" if is_left else ">", _col(split_feature), _lit(threshold)
        )
        where = predicate if where is None else ast.BinaryOp("and", where, predicate)
    return ast.Select(
        items=[
            ast.SelectItem(_col(feature), "__v"),
            ast.SelectItem(_count_star(), "__c"),
            ast.SelectItem(_sum(_col(target)), "__s"),
        ],
        sources=[ast.SubquerySource(query, "__train_src")],
        where=where,
        group_by=[_col(feature)],
    )


def _node_histograms(
    query: ast.Select,
    features: list[str],
    target: str,
    path: list[tuple[str, float, bool]],
    run: RunQuery,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(sorted distinct values, counts, positive counts) per feature."""
    histograms = []
    for feature in features:
        result = run(_histogram_query(query, feature, target, path))
        raw = [
            (value, count, positives)
            for value, count, positives in zip(
                result.column("__v"),
                result.column("__c"),
                result.column("__s"),
            )
            if value is not None
        ]
        values = np.asarray([float(v) for v, _, _ in raw], dtype=np.float64)
        counts = np.asarray([int(c) for _, c, _ in raw], dtype=np.int64)
        positives = np.asarray(
            [0.0 if s is None else float(s) for _, _, s in raw],
            dtype=np.float64,
        )
        order = np.argsort(values, kind="stable")
        histograms.append((values[order], counts[order], positives[order]))
    return histograms


def _best_split_from_histograms(
    histograms: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    n: int,
    n_positive: int,
    max_thresholds: int,
) -> Optional[tuple[int, float, float]]:
    """The numpy trainer's ``_best_split`` replayed over exact aggregate
    counts: same candidate thresholds (unique values / quantiles), same
    gini arithmetic on integer count arrays, same first-strictly-better
    tie-breaking, same ``gain <= 1e-12`` cutoff."""
    parent_gini = _gini(np.array([n - n_positive, n_positive]))
    best: Optional[tuple[int, float, float]] = None
    for j, (values, counts, positives) in enumerate(histograms):
        if len(values) < 2:
            continue
        if len(values) > max_thresholds:
            # np.quantile only needs the column's multiset; the sorted
            # repeat-by-count expansion reproduces it exactly
            column = np.repeat(values, counts)
            quantiles = np.linspace(0, 1, max_thresholds + 2)[1:-1]
            candidates = np.unique(np.quantile(column, quantiles))
        else:
            candidates = (values[:-1] + values[1:]) / 2.0
        cumulative_counts = np.cumsum(counts)
        cumulative_positives = np.cumsum(positives)
        for threshold in candidates:
            hi = int(np.searchsorted(values, threshold, side="right"))
            if hi == 0:
                continue  # n_left == 0
            n_left = int(cumulative_counts[hi - 1])
            if n_left == n:
                continue
            positive_left = int(cumulative_positives[hi - 1])
            left_counts = np.array([n_left - positive_left, positive_left])
            positive_right = n_positive - positive_left
            right_counts = np.array(
                [(n - n_left) - positive_right, positive_right]
            )
            gain = parent_gini - (
                n_left / n * _gini(left_counts)
                + (n - n_left) / n * _gini(right_counts)
            )
            if best is None or gain > best[2]:
                best = (j, float(threshold), float(gain))
    if best is None or best[2] <= 1e-12:
        return None
    return best


def _train_tree(
    name: str,
    query: ast.Select,
    features: list[str],
    target: str,
    options: dict,
    run: RunQuery,
) -> TrainedModel:
    max_depth = _pop_int(options, "max_depth", 8)
    min_samples_split = _pop_int(options, "min_samples_split", 2)
    max_thresholds = _pop_int(options, "max_thresholds", 32)
    _reject_unknown(options)

    n_nodes = 0

    def grow(path: list[tuple[str, float, bool]], depth: int) -> tuple:
        nonlocal n_nodes
        n_nodes += 1
        histograms = _node_histograms(query, features, target, path, run)
        values, counts, positives = histograms[0]
        n = int(counts.sum())
        if n == 0:
            if not path:
                raise SQLExecutionError(
                    f"TRAIN {name}: training query returned no rows"
                )
            return (0.0, None, None, None, None)
        total_positive = float(positives.sum())
        if total_positive != int(total_positive) or not (
            0.0 <= total_positive <= n
        ):
            raise SQLExecutionError(
                f"TRAIN {name}: decision_tree targets must be 0/1 labels"
            )
        n_positive = int(total_positive)
        # exact: the 0/1 label sum and count are integers, so this float
        # division reproduces numpy's y.mean() bit for bit
        prediction = n_positive / n
        if (
            depth >= max_depth
            or n < min_samples_split
            or prediction in (0.0, 1.0)
        ):
            return (prediction, None, None, None, None)
        best = _best_split_from_histograms(
            histograms, n, n_positive, max_thresholds
        )
        if best is None:
            return (prediction, None, None, None, None)
        feature_index, threshold, _ = best
        feature = features[feature_index]
        return (
            prediction,
            feature_index,
            threshold,
            grow(path + [(feature, threshold, True)], depth + 1),
            grow(path + [(feature, threshold, False)], depth + 1),
        )

    tree = grow([], depth=0)
    return TrainedModel(
        name=name,
        estimator="decision_tree",
        features=tuple(features),
        target=target,
        hyperparams=tuple(
            sorted(
                {
                    "max_depth": max_depth,
                    "min_samples_split": min_samples_split,
                    "max_thresholds": max_thresholds,
                }.items()
            )
        ),
        tree=tree,
        n_iter=n_nodes,
    )


# -- entry points -------------------------------------------------------------


def train_model(
    name: str,
    query: ast.Select,
    options: dict[str, Any],
    run: RunQuery,
) -> TrainedModel:
    """Fit one model named *name* over *query*'s output via *run*.

    ``options`` are the (literal-resolved) ``WITH (...)`` options;
    ``run`` executes a Select AST against the hosting transaction's
    catalog and returns the engine ``Result``.
    """
    options = {str(key).lower(): value for key, value in options.items()}
    estimator_raw = options.pop("estimator", "logistic_regression")
    estimator = str(estimator_raw).lower().strip()
    target_option = options.pop("target", None)
    if target_option is not None:
        target_option = str(target_option)
    columns = _discover_columns(query, run)
    features, target = _split_features(columns, target_option)
    if estimator in _LOGISTIC_NAMES:
        return _train_linear_family(
            name, query, features, target, options, run, logistic=True
        )
    if estimator in _LINEAR_NAMES:
        return _train_linear_family(
            name, query, features, target, options, run, logistic=False
        )
    if estimator in _TREE_NAMES:
        return _train_tree(name, query, features, target, options, run)
    raise SQLExecutionError(
        f"unknown TRAIN estimator {estimator_raw!r}; expected "
        "logistic_regression, linear_regression or decision_tree",
        sqlstate="22023",
    )


def model_to_estimator(model: TrainedModel):
    """Load a catalog-stored model back into a ``repro.learn`` estimator,
    so the paper's inspect/infer path picks up where training ended."""
    from repro.learn.linear_model import LinearRegression, LogisticRegression
    from repro.learn.tree import DecisionTreeClassifier

    hyperparams = dict(model.hyperparams)
    if model.estimator == "logistic_regression":
        return LogisticRegression.from_coefficients(
            model.coef,
            model.intercept,
            C=hyperparams["c"],
            max_iter=hyperparams["max_iter"],
            learning_rate=hyperparams["lr"],
            tol=hyperparams["tol"],
        )
    if model.estimator == "linear_regression":
        return LinearRegression.from_coefficients(
            model.coef,
            model.intercept,
            max_iter=hyperparams["max_iter"],
            learning_rate=hyperparams["lr"],
            tol=hyperparams["tol"],
        )
    if model.estimator == "decision_tree":
        return DecisionTreeClassifier.from_tuples(
            model.tree,
            max_depth=hyperparams["max_depth"],
            min_samples_split=hyperparams["min_samples_split"],
            max_thresholds=hyperparams["max_thresholds"],
        )
    raise SQLExecutionError(f"unknown stored estimator {model.estimator!r}")
