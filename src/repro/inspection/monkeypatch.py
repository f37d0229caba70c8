"""Monkey-patching of ``repro.frame`` and ``repro.learn``.

Mirrors mlinspect's approach (§4 of the paper): instead of modifying user
code, relevant library functions are swapped for wrappers at runtime.  Each
wrapper resolves the pipeline source line that triggered the call, then
routes through the active :class:`~repro.inspection.backend.InspectionBackend`;
nested calls execute in Python's default order, and suppressed (library-
internal) calls fall through to the originals.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Any, Iterator, Optional

import repro.frame as frame_module
import repro.frame.io as frame_io
import repro.learn as learn_module
import repro.learn.model_selection as model_selection_module
import repro.learn.preprocessing as preprocessing_module
from repro.frame.dataframe import DataFrame
from repro.frame.groupby import GroupBy
from repro.frame.series import Series
from repro.inspection.backend import InspectionBackend
from repro.learn.compose import ColumnTransformer
from repro.learn.impute import SimpleImputer
from repro.learn.linear_model import LogisticRegression, SGDClassifier
from repro.learn.neural_network import MLPClassifier
from repro.learn.preprocessing import (
    Binarizer,
    KBinsDiscretizer,
    OneHotEncoder,
    StandardScaler,
)
from repro.learn.tree import DecisionTreeClassifier

__all__ = ["patched_libraries", "TRANSFORMER_CLASSES", "ESTIMATOR_CLASSES"]

TRANSFORMER_CLASSES = (
    SimpleImputer,
    OneHotEncoder,
    StandardScaler,
    KBinsDiscretizer,
    Binarizer,
    ColumnTransformer,
)

ESTIMATOR_CLASSES = (
    LogisticRegression,
    SGDClassifier,
    MLPClassifier,
    DecisionTreeClassifier,
)

_SERIES_BINOPS = (
    "__gt__", "__ge__", "__lt__", "__le__", "__eq__", "__ne__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__and__", "__or__",
)


def _pipeline_lineno(filename: Optional[str]) -> Optional[int]:
    """Line in the user pipeline source that (transitively) made this call."""
    if filename is None:
        return None
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_filename == filename:
            return frame.f_lineno
        frame = frame.f_back
    return None


class _Patcher:
    def __init__(self, backend: InspectionBackend, filename: Optional[str]) -> None:
        self._backend = backend
        self._filename = filename
        self._saved: list[tuple[Any, str, Any]] = []

    def _swap(self, target: Any, attribute: str, replacement: Any) -> None:
        self._saved.append((target, attribute, getattr(target, attribute)))
        setattr(target, attribute, replacement)

    def restore(self) -> None:
        for target, attribute, original in reversed(self._saved):
            setattr(target, attribute, original)
        self._saved.clear()

    def patch(self) -> None:
        backend = self._backend
        lineno = lambda: _pipeline_lineno(self._filename)  # noqa: E731

        # ---- repro.frame -------------------------------------------------
        original_read_csv = frame_io.read_csv

        def read_csv(path, na_values=None, sep=",", nrows=None):
            if backend.suppressed:
                return original_read_csv(
                    path, na_values=na_values, sep=sep, nrows=nrows
                )
            return backend.read_csv(original_read_csv, path, na_values, lineno())

        self._swap(frame_io, "read_csv", read_csv)
        self._swap(frame_module, "read_csv", read_csv)

        original_init = DataFrame.__init__

        def frame_init(self, data=None, index=None):
            original_init(self, data=data, index=index)
            if not backend.suppressed:
                backend.frame_created(self, lineno())

        self._swap(DataFrame, "__init__", frame_init)

        original_getitem = DataFrame.__getitem__

        def frame_getitem(self, key):
            if backend.suppressed:
                return original_getitem(self, key)
            return backend.frame_getitem(original_getitem, self, key, lineno())

        self._swap(DataFrame, "__getitem__", frame_getitem)

        original_setitem = DataFrame.__setitem__

        def frame_setitem(self, key, value):
            if backend.suppressed:
                return original_setitem(self, key, value)
            return backend.frame_setitem(
                original_setitem, self, key, value, lineno()
            )

        self._swap(DataFrame, "__setitem__", frame_setitem)

        original_merge = DataFrame.merge

        def frame_merge(self, right, on=None, how="inner", suffixes=("_x", "_y")):
            if backend.suppressed:
                return original_merge(self, right, on=on, how=how, suffixes=suffixes)
            return backend.frame_merge(
                lambda left, r, on, how, suffixes: original_merge(
                    left, r, on=on, how=how, suffixes=suffixes
                ),
                self,
                right,
                on,
                how,
                suffixes,
                lineno(),
            )

        self._swap(DataFrame, "merge", frame_merge)

        original_dropna = DataFrame.dropna

        def frame_dropna(self, subset=None):
            if backend.suppressed:
                return original_dropna(self, subset=subset)
            return backend.frame_dropna(
                lambda f, subset=None: original_dropna(f, subset=subset),
                self,
                subset,
                lineno(),
            )

        self._swap(DataFrame, "dropna", frame_dropna)

        for holder, method in ((DataFrame, "replace"), (Series, "replace")):
            original_replace = getattr(holder, method)

            def frame_replace(
                self, to_replace, value=None, regex=False, _orig=original_replace
            ):
                if backend.suppressed:
                    return _orig(self, to_replace, value, regex=regex)
                return backend.frame_replace(
                    lambda o, t, v, regex=False, _o=_orig: _o(o, t, v, regex=regex),
                    self,
                    to_replace,
                    value,
                    regex,
                    lineno(),
                )

            self._swap(holder, method, frame_replace)

        original_agg = GroupBy.agg

        def groupby_agg(self, spec=None, **named):
            if backend.suppressed:
                return original_agg(self, spec, **named)
            return backend.groupby_agg(original_agg, self, spec, named, lineno())

        self._swap(GroupBy, "agg", groupby_agg)

        for op_name in _SERIES_BINOPS:
            original_op = getattr(Series, op_name)

            def series_binop(self, other, _orig=original_op, _name=op_name):
                if backend.suppressed:
                    return _orig(self, other)
                return backend.series_binop(_orig, _name, self, other, lineno())

            self._swap(Series, op_name, series_binop)

        original_invert = Series.__invert__

        def series_invert(self):
            if backend.suppressed:
                return original_invert(self)
            return backend.series_unop(original_invert, "__invert__", self, lineno())

        self._swap(Series, "__invert__", series_invert)

        original_isin = Series.isin

        def series_isin(self, values):
            if backend.suppressed:
                return original_isin(self, values)
            return backend.series_isin(original_isin, self, values, lineno())

        self._swap(Series, "isin", series_isin)

        # ---- repro.learn -------------------------------------------------------
        for cls in TRANSFORMER_CLASSES:
            original_fit_transform = cls.fit_transform

            def fit_transform(self, X, y=None, _orig=original_fit_transform):
                if backend.suppressed:
                    return _orig(self, X, y)
                return backend.transformer_fit_transform(
                    _orig, self, X, y, lineno()
                )

            self._swap(cls, "fit_transform", fit_transform)

            original_transform = cls.transform

            def transform(self, X, _orig=original_transform):
                if backend.suppressed:
                    return _orig(self, X)
                return backend.transformer_transform(_orig, self, X, lineno())

            self._swap(cls, "transform", transform)

        original_label_binarize = preprocessing_module.label_binarize

        def label_binarize(y, classes):
            if backend.suppressed:
                return original_label_binarize(y, classes=classes)
            return backend.label_binarize(
                lambda y, classes: original_label_binarize(y, classes=classes),
                y,
                classes,
                lineno(),
            )

        self._swap(preprocessing_module, "label_binarize", label_binarize)
        self._swap(learn_module, "label_binarize", label_binarize)

        original_split = model_selection_module.train_test_split

        def train_test_split(*arrays, **kwargs):
            if backend.suppressed:
                return original_split(*arrays, **kwargs)
            return backend.train_test_split(
                original_split, arrays, kwargs, lineno()
            )

        self._swap(model_selection_module, "train_test_split", train_test_split)
        self._swap(learn_module, "train_test_split", train_test_split)

        for cls in ESTIMATOR_CLASSES:
            original_fit = cls.fit

            def fit(self, X, y, _orig=original_fit):
                if backend.suppressed:
                    return _orig(self, X, y)
                return backend.estimator_fit(_orig, self, X, y, lineno())

            self._swap(cls, "fit", fit)

            original_score = cls.score

            def score(self, X, y, _orig=original_score):
                if backend.suppressed:
                    return _orig(self, X, y)
                return backend.estimator_score(_orig, self, X, y, lineno())

            self._swap(cls, "score", score)


@contextmanager
def patched_libraries(
    backend: InspectionBackend, pipeline_filename: Optional[str] = None
) -> Iterator[None]:
    """Context manager installing (and always restoring) the patches."""
    patcher = _Patcher(backend, pipeline_filename)
    patcher.patch()
    try:
        yield
    finally:
        patcher.restore()
