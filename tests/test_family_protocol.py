"""The model-family protocol end to end: a family registered from outside the
package is searched, saved and restored, and the saved winner is the model
its trial scored."""

import json

import numpy as np
import pytest

from qmlfinder import (
    BudgetLedger,
    CallCounter,
    FinderConfig,
    ModelFamilyConfig,
    TaskType,
    find_model,
    select_best,
)
from qmlfinder.models import Score
from qmlfinder.store import (
    StudyStore,
    model_from_spec,
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


def _with_nearest_mean(registry, builder=lambda kwargs, seed: NearestMean(), restore=None):
    registry.register(
        "model",
        ModelFamilyConfig(
            name="NEAREST_MEAN",
            task=TaskType.CLASSIFICATION,
            n_layers=(1, 1),
            builder=builder,
            restore=restore,
        ),
    )
    return registry


def test_registered_family_wins_and_round_trips(registry, blobs40, tmp_path):
    X, y = blobs40
    registry = _with_nearest_mean(registry, restore=NearestMean.from_spec)
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


def test_family_without_restore_is_refused_before_any_trial(registry, blobs40, tmp_path):
    X, y = blobs40
    built = []

    def builder(kwargs, seed):
        built.append(seed)
        return NearestMean()

    registry = _with_nearest_mean(registry, builder=builder)
    store = StudyStore(tmp_path / "study.jsonl")
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=2, n_seeds=1, n_epochs=1)
    with pytest.raises(ValueError, match="NEAREST_MEAN"):
        find_model(config, registry, X, y, store)
    assert built == []
    assert not (tmp_path / "study.jsonl").exists()


def test_family_without_spec_fields_is_refused_before_any_fit(registry, blobs40, tmp_path):
    X, y = blobs40
    fitted = []

    class Unsavable(UnsavableNearestMean):
        def fit(self, X, y, ledger):
            fitted.append(self)
            return super().fit(X, y, ledger)

    registry = _with_nearest_mean(registry, builder=lambda kwargs, seed: Unsavable(),
                                  restore=NearestMean.from_spec)
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

    def fit(self, X, y, ledger):
        self.train_score = float("nan")
        return self

    def spec_fields(self):  # never called: a NaN-scoring trial fails, so it never wins
        raise AssertionError("a NaN-scoring trial cannot win")


@pytest.mark.parametrize("kind", ["mean_accuracy", "r2", "silhouette", "unknown"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_score_refuses_non_finite_values(kind, value):
    with pytest.raises(ValueError, match="not finite"):
        Score(value, kind)


def test_nan_scoring_trial_fails_and_the_store_stays_standard_json(registry, sine20, tmp_path):
    X, y = sine20
    registry.register(
        "model",
        ModelFamilyConfig(
            name="NAN_REGRESSOR",
            task=TaskType.REGRESSION,
            n_layers=(1, 1),
            builder=lambda kwargs, seed: NanRegressor(),
            restore=lambda spec, registry: NanRegressor(),
        ),
    )
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
