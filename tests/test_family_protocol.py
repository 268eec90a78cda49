"""The model-family protocol end to end: a family registered from outside the
package is searched, saved and restored, and the saved winner is the model
its trial scored."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from qmlfinder import (
    BudgetLedger,
    CallCounter,
    FinderConfig,
    OptimizerConfig,
    Registry,
    TaskType,
    base_registry,
    default_registry,
    find_hyperparameters,
    find_model,
    select_best,
    silhouette_score,
)
from qmlfinder.models import Score
from qmlfinder.store import (
    ModelSpec,
    StudyStore,
    model_from_spec,
    model_to_spec,
    read_model_spec,
    write_model_spec,
)


class UnsavableNearestMean:
    """Classical toy family: label each point by the nearer class mean. It has
    no `spec_fields`, so its models cannot be saved."""

    task = TaskType.CLASSIFICATION
    family = "NEAREST_MEAN"
    score_kind = "mean_accuracy"

    def __init__(self, means=None):
        self.means = means
        self.train_score = None

    @classmethod
    def build(cls, trial, X, config, registry, seed):
        return cls()

    def fit(self, X, y, ledger):
        self.means = np.array([X[y == label].mean(axis=0) for label in (0, 1)])
        self.train_score = self.score(X, y, ledger.scoring)
        return self

    def predict(self, X, counter):
        distances = ((np.asarray(X)[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=-1)
        return np.argmin(distances, axis=1)

    def score(self, X, y, counter):
        return float(np.mean(self.predict(X, counter) == np.asarray(y)))


class NearestMean(UnsavableNearestMean):
    """The toy family with its model-file fields."""

    def spec_fields(self):
        return {
            "n_wires": 0,
            "embedding": None,
            "layers": [],
            "weights": [float(v) for v in self.means.reshape(-1)],
            "extras": {},
        }

    @classmethod
    def from_spec(cls, spec, registry):
        return cls(np.asarray(spec.weights, dtype=float).reshape(2, spec.n_features))


def test_registered_family_wins_and_round_trips(registry, blobs40, tmp_path):
    X, y = blobs40
    registry = registry.register("model", NearestMean)
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=4, n_seeds=1, n_epochs=1,
                          threshold=0.8, base_seed=0)
    store = StudyStore(tmp_path / "study.jsonl")
    spec = find_model(config, registry, X, y, store)
    families = {r.sampled["model_type"] for r in store.load()}
    assert families > {"NEAREST_MEAN"}  # it beat at least one shipped family
    assert spec.model_family == "NEAREST_MEAN"
    assert spec.metadata["total_calls"] == 0

    path = tmp_path / "model.json"
    write_model_spec(spec, path)
    restored = model_from_spec(read_model_spec(path), registry)
    expected = NearestMean().fit(X, y, BudgetLedger())
    np.testing.assert_array_equal(
        restored.predict(X, CallCounter()), expected.predict(X, CallCounter())
    )
    np.testing.assert_array_equal(restored.predict(X, CallCounter()), y)


class TunableNearestMean(NearestMean):
    """The toy family with what the tuner uses: `reseeded` and a `fit` taking
    `optimizer=`. Its score is best at learning rate 0.1."""

    family = "TUNABLE_NEAREST_MEAN"

    def reseeded(self, seed):
        return type(self)()

    def fit(self, X, y, ledger, optimizer=None):
        super().fit(X, y, ledger)
        self.train_score -= abs(optimizer.learning_rate - 0.1)
        return self


def test_registered_family_with_reseeded_is_tuned(registry, blobs40, tmp_path):
    X, y = blobs40
    registry = registry.register("model", TunableNearestMean)
    spec = model_to_spec(TunableNearestMean().fit(X, y, BudgetLedger(), OptimizerConfig()),
                         X.shape[1], {})
    store = StudyStore(tmp_path / "tuning.jsonl")
    best = find_hyperparameters(spec, X, y, registry, n_trials=6, n_seeds=2, store=store)
    records = store.load()
    assert [r.status for r in records] == ["complete"] * 6
    closest = min(records, key=lambda r: abs(r.sampled["learning_rate"] - 0.1))
    assert best.learning_rate == closest.sampled["learning_rate"]


@pytest.mark.parametrize("missing", ["family", "task", "build", "from_spec"])
def test_family_class_without_identity_or_restore_is_refused(missing):
    attrs = {"family": "INCOMPLETE", "task": TaskType.CLASSIFICATION,
             "build": classmethod(lambda cls, trial, X, config, registry, seed: cls()),
             "from_spec": classmethod(lambda cls, spec, registry: cls())}
    del attrs[missing]
    incomplete = type("Incomplete", (), attrs)
    registry = Registry()
    with pytest.raises(ValueError, match=f"Incomplete has no {missing}"):
        registry.register("model", incomplete)
    assert registry.model_names == []


def test_registered_family_is_named_by_its_class(registry):
    for name in registry.model_names:
        assert registry.model(name).family == name
    assert registry.register("model", NearestMean).model("NEAREST_MEAN") is NearestMean


def test_registered_family_trials_record_only_what_its_build_draws(
    registry, blobs40, cluster_blobs, tmp_path
):
    registry.register("model", NearestMean).register("model", TwoMeans)
    studies = ((TaskType.CLASSIFICATION, *blobs40), (TaskType.CLUSTERING, cluster_blobs, None))
    for task, X, y in studies:
        store = StudyStore(tmp_path / f"{task.value}.jsonl")
        config = FinderConfig(task=task, n_trials=8, n_seeds=1, n_epochs=1, base_seed=0)
        find_model(config, registry, X, y, store)
        added = [r for r in store.load()
                 if r.sampled["model_type"] in ("NEAREST_MEAN", "TWO_MEANS")]
        assert added and all(r.status == "complete" for r in added)
        assert all(list(r.sampled) == ["model_type"] for r in added)


def test_registered_family_searches_data_wider_than_any_embedding(tmp_path):
    width = 2**16 + 1  # beyond 16 ANGLE wires and 2**16 AMPLITUDE amplitudes
    X = np.repeat([[0.0], [1.0]], 2, axis=0) * np.ones(width)
    y = np.array([0, 0, 1, 1])
    registry = default_registry().register("model", NearestMean)
    store = StudyStore(tmp_path / "study.jsonl")
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=6, n_seeds=1, n_epochs=1)
    spec = find_model(config, registry, X, y, store)
    records = store.load()
    assert spec.model_family == "NEAREST_MEAN"
    assert {r.status for r in records if r.sampled["model_type"] == "NEAREST_MEAN"} == {"complete"}
    assert all(r.error == f"ValueError: no registered embedding can host {width} features"
               for r in records if r.sampled["model_type"] != "NEAREST_MEAN")


def test_family_without_spec_fields_is_refused_before_any_fit(registry, blobs40, tmp_path):
    X, y = blobs40
    fitted = []

    class Unsavable(UnsavableNearestMean):
        def fit(self, X, y, ledger):
            fitted.append(self)
            return super().fit(X, y, ledger)

    class BuildsUnsavable(NearestMean):
        @classmethod
        def build(cls, trial, X, config, registry, seed):
            return Unsavable()

    registry = registry.register("model", BuildsUnsavable)
    store = StudyStore(tmp_path / "study.jsonl")
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=4, n_seeds=1, n_epochs=1,
                          threshold=0.8, base_seed=0)
    with pytest.raises(ValueError, match="NEAREST_MEAN"):
        find_model(config, registry, X, y, store)
    assert fitted == []
    assert not (tmp_path / "study.jsonl").exists()


def test_model_file_is_the_winners_evaluation_repeat_zero(registry, sine20, tmp_path):
    X, y = sine20
    config = FinderConfig(task=TaskType.REGRESSION, n_trials=4, n_seeds=2, n_epochs=2,
                          base_seed=1)
    store = StudyStore(tmp_path / "study.jsonl")
    spec = find_model(config, registry, X, y, store)
    path = tmp_path / "model.json"
    write_model_spec(spec, path)
    restored = model_from_spec(read_model_spec(path), registry)
    (winner,) = [r for r in store.load() if r.trial_id == spec.metadata["trial_id"]]
    assert abs(restored.score(X, y, CallCounter()) - winner.per_seed_scores[0]) <= 1e-12


def test_clustering_winner_refit_at_nonzero_seed(registry, cluster_blobs):
    config = FinderConfig(task=TaskType.CLUSTERING, n_trials=4, n_seeds=1, n_epochs=10,
                          base_seed=2)
    spec = find_model(config, registry, cluster_blobs, None)
    assert spec.model_family == "RBM"
    restored = model_from_spec(spec, registry)
    assert abs(restored.score(cluster_blobs) - spec.metadata["mean_score"]) <= 1e-12


class NanRegressor:
    """Toy regressor whose training score is NaN."""

    task = TaskType.REGRESSION
    family = "NAN_REGRESSOR"
    score_kind = "r2"

    @classmethod
    def build(cls, trial, X, config, registry, seed):
        return cls()

    def fit(self, X, y, ledger):
        self.train_score = float("nan")
        return self

    def spec_fields(self):  # never called: a NaN-scoring trial fails, so it never wins
        raise AssertionError("a NaN-scoring trial cannot win")

    @classmethod
    def from_spec(cls, spec, registry):
        return cls()


@pytest.mark.parametrize("kind", ["mean_accuracy", "r2", "silhouette", "unknown"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_score_refuses_non_finite_values(kind, value):
    with pytest.raises(ValueError, match="not finite"):
        Score(value, kind)


def test_nan_scoring_trial_fails_and_the_store_stays_standard_json(registry, sine20, tmp_path):
    X, y = sine20
    registry.register("model", NanRegressor)
    config = FinderConfig(task=TaskType.REGRESSION, n_trials=8, n_seeds=1, n_epochs=1,
                          base_seed=0)
    store = StudyStore(tmp_path / "study.jsonl")
    spec = find_model(config, registry, X, y, store)
    records = store.load()
    nan_trials = [r for r in records if r.sampled["model_type"] == "NAN_REGRESSOR"]
    assert nan_trials and all(
        r.status == "failed" and "not finite" in r.error for r in nan_trials
    )
    assert spec.model_family == "QNN_REGRESSOR"
    assert select_best(records)[0].sampled["model_type"] == "QNN_REGRESSOR"

    def refuse(literal):
        raise ValueError(f"non-standard JSON constant {literal}")

    for line in (tmp_path / "study.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=refuse)


class TwoMeans:
    """Classical clustering toy written to the documented protocol: one
    `fit(X, y, ledger)` that sets `train_score`, and `score(X, y, counter)`,
    as every family has."""

    task = TaskType.CLUSTERING
    family = "TWO_MEANS"
    score_kind = "silhouette"

    def __init__(self, centers=None):
        self.centers = centers

    @classmethod
    def build(cls, trial, X, config, registry, seed):
        return cls()

    def fit(self, X, y, ledger):
        totals = X.sum(axis=1)
        self.centers = X[[np.argmin(totals), np.argmax(totals)]]
        for _ in range(5):
            labels = self.predict(X, ledger.scoring)
            self.centers = np.array([X[labels == k].mean(axis=0) for k in (0, 1)])
        self.train_score = silhouette_score(X, self.predict(X, ledger.scoring))
        return self

    def predict(self, X, counter):
        distances = ((np.asarray(X)[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=-1)
        return np.argmin(distances, axis=1)

    def score(self, X, y, counter):
        return silhouette_score(X, self.predict(X, counter))

    def spec_fields(self):
        return {"n_wires": 0, "embedding": None, "layers": [],
                "weights": [float(v) for v in self.centers.reshape(-1)], "extras": {}}

    @classmethod
    def from_spec(cls, spec, registry):
        return cls(np.reshape(spec.weights, (2, spec.n_features)))


def test_registered_clustering_family_wins_and_round_trips(registry, cluster_blobs, tmp_path):
    registry.register("model", TwoMeans)
    config = FinderConfig(task=TaskType.CLUSTERING, n_trials=6, n_seeds=2, n_epochs=2,
                          base_seed=1)
    store = StudyStore(tmp_path / "study.jsonl")
    spec = find_model(config, registry, cluster_blobs, None, store)
    outcomes = {(r.sampled["model_type"], r.status) for r in store.load()}
    assert outcomes >= {("RBM", "complete"), ("TWO_MEANS", "complete")}
    assert ("TWO_MEANS", "failed") not in outcomes
    assert spec.model_family == "TWO_MEANS"

    path = tmp_path / "model.json"
    write_model_spec(spec, path)
    restored = model_from_spec(read_model_spec(path), registry)
    expected = TwoMeans().fit(cluster_blobs, None, BudgetLedger())
    np.testing.assert_array_equal(
        restored.predict(cluster_blobs, CallCounter()),
        expected.predict(cluster_blobs, CallCounter()),
    )
    assert restored.score(cluster_blobs, None, CallCounter()) == spec.metadata["mean_score"]


class TrainScoredTwoMeans(TwoMeans):
    """TwoMeans whose `score` refuses to run: a trial must record `train_score`."""

    family = "TRAIN_SCORED_TWO_MEANS"

    def score(self, X, y, counter):
        raise AssertionError("a trial records train_score; it does not call score")


def test_clustering_trial_records_the_train_score_its_fit_set(cluster_blobs, tmp_path):
    registry = base_registry().register("model", TrainScoredTwoMeans)
    config = FinderConfig(task=TaskType.CLUSTERING, n_trials=3, n_seeds=2, n_epochs=1)
    store = StudyStore(tmp_path / "study.jsonl")
    spec = find_model(config, registry, cluster_blobs, None, store)
    expected = TwoMeans().fit(cluster_blobs, None, BudgetLedger()).train_score
    records = store.load()
    assert [r.status for r in records] == ["complete"] * 3
    assert all(r.per_seed_scores == [expected, expected] for r in records)
    assert spec.metadata["mean_score"] == expected


def test_readme_registration_example_runs(blobs40):
    """The README's registration example, run as written, on blobs40."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = [block for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
                  if "register(" in block]
    X, y = blobs40
    namespace = {"X": X, "y": y}
    exec(compile(example, "README.md", "exec"), namespace)
    spec, registry = namespace["spec"], namespace["registry"]
    added = set(registry.model_names) - set(default_registry().model_names)
    assert spec.model_family in added  # a classical family books no calls, so it wins
    restored = model_from_spec(ModelSpec.from_json(spec.to_json()), registry)
    np.testing.assert_array_equal(restored.predict(X, CallCounter()), y)
