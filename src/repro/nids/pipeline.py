"""Train-on-synthetic / test-on-real (TSTR) utility evaluation.

This is the harness behind Figures 3 and 4: every classifier is trained once
on real data (the baseline bar) and once on each synthesizer's output, and
all of them are scored on the same held-out real test set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nids.boosting import AdaBoostClassifier, GradientBoostingClassifier
from repro.nids.decision_tree import DecisionTreeClassifier
from repro.nids.features import TabularFeaturizer
from repro.nids.knn import KNearestNeighbors
from repro.nids.logistic_regression import LogisticRegressionClassifier
from repro.nids.metrics import classification_report
from repro.nids.mlp import MLPClassifier
from repro.nids.naive_bayes import GaussianNaiveBayes
from repro.nids.random_forest import RandomForestClassifier
from repro.nids.svm import LinearSVMClassifier
from repro.tabular.table import Table

__all__ = [
    "DEFAULT_CLASSIFIERS",
    "make_classifier",
    "train_and_score",
    "UtilityResult",
    "evaluate_utility",
]

#: Classifier names used by the figure benchmarks (a representative subset of
#: the full registry keeps the benches fast; pass an explicit list for more).
DEFAULT_CLASSIFIERS = ("decision_tree", "random_forest", "logistic_regression", "naive_bayes")

_REGISTRY = {
    "decision_tree": lambda seed: DecisionTreeClassifier(seed=seed),
    "random_forest": lambda seed: RandomForestClassifier(seed=seed),
    "logistic_regression": lambda seed: LogisticRegressionClassifier(seed=seed, epochs=100),
    "naive_bayes": lambda seed: GaussianNaiveBayes(),
    "knn": lambda seed: KNearestNeighbors(seed=seed),
    "mlp": lambda seed: MLPClassifier(seed=seed, epochs=40),
    "gradient_boosting": lambda seed: GradientBoostingClassifier(
        seed=seed, n_estimators=25, max_depth=3
    ),
    "adaboost": lambda seed: AdaBoostClassifier(seed=seed, n_estimators=20, max_depth=2),
    "svm": lambda seed: LinearSVMClassifier(seed=seed, epochs=30),
}


def make_classifier(name: str, seed: int = 0):
    """Instantiate a classifier by registry name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown classifier {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[name](seed)


def train_and_score(
    classifier_name: str,
    train: Table,
    test: Table,
    label_column: str,
    seed: int = 0,
) -> dict[str, float]:
    """Train one classifier on ``train`` and report metrics on ``test``.

    The featurizer is always fitted on the *training* table's schema (which
    the synthetic tables share), so feature layouts are identical across
    real-trained and synthetic-trained runs.
    """
    featurizer = TabularFeaturizer(label_column).fit(train)
    X_train, y_train = featurizer.transform(train)
    X_test, y_test = featurizer.transform(test)
    model = make_classifier(classifier_name, seed=seed)
    model.fit(X_train, y_train)
    predictions = model.predict(X_test)
    return classification_report(y_test, predictions)


@dataclass
class UtilityResult:
    """Per-classifier accuracies for one training source (real or one model)."""

    source: str
    per_classifier: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def mean_accuracy(self) -> float:
        if not self.per_classifier:
            return float("nan")
        return float(np.mean([m["accuracy"] for m in self.per_classifier.values()]))

    def as_row(self) -> dict[str, float | str]:
        row: dict[str, float | str] = {"source": self.source}
        for name, metrics in self.per_classifier.items():
            row[name] = round(metrics["accuracy"], 4)
        row["mean_accuracy"] = round(self.mean_accuracy, 4)
        return row


def evaluate_utility(
    real_train: Table,
    real_test: Table,
    synthetic_tables: dict[str, Table],
    label_column: str,
    classifiers: tuple[str, ...] = DEFAULT_CLASSIFIERS,
    seed: int = 0,
) -> list[UtilityResult]:
    """TSTR evaluation: the baseline (real-trained) plus one row per model.

    Returns a list of :class:`UtilityResult`, the first of which is always
    the ``"REAL"`` baseline the paper's figures show alongside the models.
    """
    results: list[UtilityResult] = []
    baseline = UtilityResult(source="REAL")
    for classifier in classifiers:
        baseline.per_classifier[classifier] = train_and_score(
            classifier, real_train, real_test, label_column, seed=seed
        )
    results.append(baseline)

    for model_name, synthetic in synthetic_tables.items():
        result = UtilityResult(source=model_name)
        for classifier in classifiers:
            result.per_classifier[classifier] = train_and_score(
                classifier, synthetic, real_test, label_column, seed=seed
            )
        results.append(result)
    return results
