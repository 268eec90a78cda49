"""Search contracts: sampler determinism and bounds, suggestion schemas,
trial crash containment, the selection objective, and the tuner."""

import sys

import numpy as np
import pytest

from qmlfinder import (
    FinderConfig,
    HyperparameterTuner,
    ModelFinder,
    PortableRng,
    Registry,
    StudyFailureError,
    TaskType,
    Trial,
    TrialRecord,
    UnsupportedModelError,
    base_registry,
    default_registry,
    derive_seed,
    find_hyperparameters,
    find_model,
    repeat_seed,
    run_trial,
    select_best,
    suggest_embedding,
    suggest_layers,
    suggest_unsupervised_kwargs,
)
from qmlfinder import ANGLE, LayerKind, search
from qmlfinder.models import (BinaryEncoder, QEKClassifier, QNNClassifier, QNNRegressor,
                              RBMClusterer)
from qmlfinder.search import _fit_and_score, _suggest_and_build
from qmlfinder.simulator import rx
from qmlfinder.store import StudyStore, model_from_spec, model_to_spec

from oracles import RefXorshift


# -- trials ----------------------------------------------------------------------


def test_trial_draw_bounds_hold_over_many_draws():
    trial = Trial(0, seed=123)
    for i in range(1000):  # a new name per draw: a repeated name answers from the record
        assert 1 <= trial.suggest_int(f"i{i}", 1, 3) <= 3
        assert 0.3 <= trial.suggest_float(f"f{i}", 0.3, 0.7) <= 0.7
        assert trial.suggest_categorical(f"c{i}", ["a", "b"]) in ("a", "b")


def test_trial_draws_are_its_seeds_generator_in_suggestion_order():
    a, b, rng = Trial(0, seed=9), Trial(1, seed=9), PortableRng(9)
    seq_a = [a.suggest_int(f"x{i}", 0, 100) for i in range(20)]
    seq_b = [b.suggest_int(f"x{i}", 0, 100) for i in range(20)]
    assert seq_a == seq_b == [rng.randint(0, 100) for _ in range(20)]
    assert a.suggest_float("f", 0.3, 0.7) == rng.uniform(0.3, 0.7)
    assert a.suggest_float("g", 1e-3, 0.5, log=True) == rng.log_uniform(1e-3, 0.5)
    assert a.suggest_categorical("c", ["a", "b", "c"]) == rng.choice(["a", "b", "c"])


def test_trial_caches_repeated_names():
    trial = Trial(0, seed=4)
    first = trial.suggest_int("n_layers", 1, 1000)
    again = trial.suggest_int("n_layers", 1, 1000)
    assert first == again
    assert list(trial.sampled) == ["n_layers"]


# -- suggestion procedures --------------------------------------------------------


def test_suggest_layers_names_and_order(registry):
    trial = Trial(0, seed=11)
    layers = suggest_layers(trial, 3, registry)
    assert list(trial.sampled) == ["layer_0", "layer_1", "layer_2"]
    assert [k.name for k in layers] == [trial.sampled[f"layer_{i}"] for i in range(3)]


def test_suggest_layers_single_kind_registry(registry):
    from qmlfinder import BASIC_ENTANGLER

    reg = Registry()
    reg.register("layer", BASIC_ENTANGLER)
    layers = suggest_layers(Trial(0, seed=3), 4, reg)
    assert all(k.name == "BasicEntangler" for k in layers)


def test_suggest_layers_empty_registry_fails():
    with pytest.raises(ValueError):
        suggest_layers(Trial(0, seed=3), 2, Registry())


def test_suggest_layers_matches_prng_trace_oracle(registry):
    # an independent xorshift64* walk-through predicts the categorical picks
    seed = 7
    trial = Trial(0, seed=seed)
    layers = suggest_layers(trial, 5, registry)
    ref = RefXorshift(seed)
    expected = [ref.choice(registry.layer_names) for _ in range(5)]
    assert [k.name for k in layers] == expected


def test_suggest_embedding_eligibility(registry):
    # 2 features: both embeddings fit
    trial = Trial(0, seed=0)
    kind = suggest_embedding(trial, registry, 2)
    assert kind.name in ("ANGLE", "AMPLITUDE")
    # 5 features: ANGLE needs 5 wires, AMPLITUDE 3 -> both eligible with own wires
    assert suggest_embedding(Trial(1, seed=1), registry, 5).name in ("ANGLE", "AMPLITUDE")


def test_suggest_embedding_no_compatible(registry):
    # beyond the 16-wire cap for ANGLE and beyond 2**16 amplitudes for AMPLITUDE
    with pytest.raises(ValueError):
        suggest_embedding(Trial(0, seed=0), registry, 2**16 + 1)


def test_embedding_compatibility_arithmetic(registry):
    # at a fixed 2-wire budget, 5 features fit neither embedding
    from qmlfinder import embed, ANGLE, AMPLITUDE

    with pytest.raises(ValueError):
        embed(ANGLE, np.ones(5), 2)
    with pytest.raises(ValueError):
        embed(AMPLITUDE, np.ones(5), 2)
    # 3 features on 2 wires: AMPLITUDE pads to 4
    (prep,) = embed(AMPLITUDE, np.ones(3), 2)
    assert len(prep.amplitudes) == 4


def test_finder_config_refuses_a_nan_threshold():
    with pytest.raises(ValueError, match="threshold must be a number, got nan"):
        FinderConfig(task=TaskType.CLASSIFICATION, threshold=float("nan"))
    for threshold in (float("inf"), float("-inf")):  # nothing, or every complete trial, passes
        assert FinderConfig(task=TaskType.CLASSIFICATION, threshold=threshold).threshold == threshold


@pytest.mark.parametrize("options", [
    *({name: value} for name in ("n_trials", "n_seeds", "n_epochs", "n_cores", "base_seed")
      for value in (1.5, 1.0, True, "2", None)),
    {"threshold": "0.5"}, {"threshold": True}, {"threshold": None},
])
def test_finder_config_refuses_options_of_the_wrong_type(options):
    (name,) = options
    with pytest.raises(ValueError, match=f"^{name} must be"):
        FinderConfig(task=TaskType.CLASSIFICATION, **options)


def test_finder_config_accepts_numpy_options():
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=np.int64(2), n_seeds=np.int32(1),
                          n_epochs=np.int64(0), n_cores=np.int8(1), base_seed=np.uint64(7),
                          threshold=np.float32(0.5))
    assert (config.n_trials, config.n_seeds, config.base_seed, config.threshold) == (2, 1, 7, 0.5)


def test_model_finder_options_are_the_finder_config_fields(blobs40):
    X, y = blobs40
    finder = ModelFinder("classification", X, y, n_trials=2, threshold=0.5)
    assert finder.config == FinderConfig(task=TaskType.CLASSIFICATION, n_trials=2, threshold=0.5)
    assert ModelFinder(TaskType.CLASSIFICATION, X, y).config == FinderConfig(
        task=TaskType.CLASSIFICATION)
    with pytest.raises(TypeError):
        ModelFinder("classification", X, y, n_trial=2)


def test_command_defaults_are_the_api_defaults():
    from qmlfinder.cli import _parse

    find = _parse(["find-model", "--task", "classification", "--data", "d.csv"])
    config = FinderConfig(task=TaskType.CLASSIFICATION)
    assert (find.trials, find.seeds, find.epochs, find.threshold, find.seed) == (
        config.n_trials, config.n_seeds, config.n_epochs, config.threshold, config.base_seed)
    tune = _parse(["tune", "--model", "m.json", "--data", "d.csv"])
    tuner = HyperparameterTuner(None, None, None)
    assert (tune.trials, tune.seeds, tune.seed) == (tuner.n_trials, tuner.n_seeds,
                                                    tuner.base_seed)


def test_supervised_kwargs_bounds(registry):
    config = FinderConfig(task=TaskType.CLASSIFICATION)
    X = np.zeros((10, 2))
    for trial_id in range(200):
        trial = Trial(trial_id, derive_seed(0, trial_id))
        model = QNNClassifier.build(trial, X, config, registry, 0)
        assert 1 <= trial.sampled["n_layers"] <= 3
        assert 15 <= trial.sampled["batch_size"] <= 25
        assert model.batch_size == trial.sampled["batch_size"]
        assert len(model.circuit.layer_kinds) == trial.sampled["n_layers"]
        assert model.n_epochs == config.n_epochs
        assert model.accuracy_threshold == config.threshold
    for trial_id in range(200):
        trial = Trial(trial_id, derive_seed(1, trial_id))
        model = QEKClassifier.build(trial, X, config, registry, 0)
        assert 3 <= trial.sampled["n_layers"] <= 5
        assert "batch_size" not in trial.sampled
        assert model.ridge_lambda == 1e-3


@pytest.mark.parametrize("threshold", [float("inf"), float("-inf"), 1.5, -0.5, 0.8])
def test_a_qnn_stops_early_at_the_study_threshold_clamped_into_its_model_file_range(registry,
                                                                                   threshold):
    # [0, 1] for accuracy and [-float max, 1] for R^2: the model file stores
    # the clamped value; the study threshold alone still decides feasibility
    X = np.zeros((10, 2))
    for family, task, low in ((QNNClassifier, TaskType.CLASSIFICATION, 0.0),
                              (QNNRegressor, TaskType.REGRESSION, -sys.float_info.max)):
        config = FinderConfig(task=task, threshold=threshold)
        model = family.build(Trial(0, derive_seed(0, 0)), X, config, registry, 0)
        assert getattr(model, family.threshold_key) == min(max(threshold, low), 1.0)


def test_supervised_wire_rule(registry):
    config = FinderConfig(task=TaskType.CLASSIFICATION)
    X = np.zeros((4, 5))
    for trial_id in range(50):
        trial = Trial(trial_id, derive_seed(3, trial_id))
        n_wires = QNNClassifier.build(trial, X, config, registry, 0).circuit.n_wires
        if trial.sampled["embedding"] == "ANGLE":
            assert n_wires == 5
        else:
            assert n_wires == 3  # ceil(log2(5))


def test_unsupervised_kwargs_bounds(registry):
    config = FinderConfig(task=TaskType.CLUSTERING)
    X = np.zeros((8, 16))
    for trial_id in range(1000):
        trial = Trial(trial_id, derive_seed(0, trial_id))
        kwargs = suggest_unsupervised_kwargs(trial, X, registry, config)
        out_channels = kwargs["lbae_out_channels"]
        assert 4 <= out_channels <= 12  # floor(sqrt(16)), ceil(0.75 * 16)
        lo = int(np.floor(np.sqrt(out_channels)))
        hi = int(np.ceil(0.75 * out_channels))
        assert lo <= kwargs["rbm_n_hidden_neurons"] <= hi
        assert kwargs["rbm_n_visible_neurons"] == out_channels
        assert 1 <= kwargs["lbae_n_layers"] <= 3
        assert 0.3 <= kwargs["firing_threshold"] <= 0.7


def test_unsupervised_small_input_bounds(registry):
    config = FinderConfig(task=TaskType.CLUSTERING)
    X = np.zeros((8, 4))
    seen = set()
    for trial_id in range(200):
        trial = Trial(trial_id, derive_seed(0, trial_id))
        kwargs = suggest_unsupervised_kwargs(trial, X, registry, config)
        seen.add(kwargs["lbae_out_channels"])
    assert seen == {2, 3}  # floor(sqrt(4)) = 2, ceil(0.75 * 4) = 3


def test_unsupervised_rejects_tiny_input(registry):
    config = FinderConfig(task=TaskType.CLUSTERING)
    with pytest.raises(ValueError):
        suggest_unsupervised_kwargs(Trial(0, seed=0), np.zeros((4, 1)), registry, config)


def test_schema_deterministic_given_family_and_depth(registry):
    config = FinderConfig(task=TaskType.CLASSIFICATION)
    X = np.zeros((6, 2))
    schemas = {}
    for trial_id in range(300):
        trial = Trial(trial_id, derive_seed(0, trial_id))
        QNNClassifier.build(trial, X, config, registry, 0)
        key = trial.sampled["n_layers"]
        names = tuple(trial.sampled)
        schemas.setdefault(key, names)
        assert schemas[key] == names


@pytest.mark.parametrize("family", ["QNN", "QEK", "QNN_REGRESSOR", "RBM"])
def test_each_shipped_family_draws_its_options_in_order(registry, cluster_blobs, family):
    config = FinderConfig(task=registry.model(family).task)
    for trial_id in range(20):
        trial = Trial(trial_id, derive_seed(0, trial_id))
        registry.model(family).build(trial, cluster_blobs, config, registry, 0)
        if family == "RBM":
            expected = ["lbae_out_channels", "rbm_n_hidden_neurons", "lbae_n_layers",
                        "firing_threshold"]
        else:
            layers = [f"layer_{i}" for i in range(trial.sampled["n_layers"])]
            expected = ["n_layers", "embedding", *layers]
            expected += ["batch_size"] if family != "QEK" else []
        assert list(trial.sampled) == expected


def test_registered_third_embedding_widens_suggest_domain(registry):
    from qmlfinder import ANGLE, EmbeddingKind, embed, register

    third = EmbeddingKind(
        name="ANGLE_SCALED",
        build=lambda x, n: embed(ANGLE, np.asarray(x) * 0.5, n),
        max_features=lambda n: n,
        wires_for_features=lambda f: f,
    )
    register(registry, "embedding", third)
    seen = set()
    for trial_id in range(300):
        trial = Trial(trial_id, derive_seed(2, trial_id))
        seen.add(suggest_embedding(trial, registry, 2).name)
    assert seen == {"ANGLE", "AMPLITUDE", "ANGLE_SCALED"}


# -- run_trial and the study -------------------------------------------------------


def test_run_trial_aggregates_seeds(registry, blobs40):
    X, y = blobs40
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_seeds=3, n_epochs=1, threshold=0.8)
    record = run_trial(Trial(0, derive_seed(0, 0)), config, registry, X, y)
    assert record.status == "complete"
    assert len(record.per_seed_scores) == 3
    assert record.feasible == (record.mean_score >= 0.8)
    assert record.total_calls == record.subtotals["total"]


def test_run_trial_contains_failures(registry):
    # all-zero feature rows break AMPLITUDE embedding -> some trials fail,
    # but run_trial must return a failed record rather than raise
    X = np.zeros((6, 2))
    y = np.array([0, 1, 0, 1, 0, 1])
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_seeds=1, n_epochs=1, threshold=0.8)
    statuses = set()
    for trial_id in range(10):
        record = run_trial(Trial(trial_id, derive_seed(0, trial_id)), config, registry, X, y)
        statuses.add(record.status)
        if record.status == "failed":
            assert record.error and not record.feasible
    assert "failed" in statuses


def test_injected_failures_mark_exactly_k_failed(registry, blobs40):
    # a model family whose build explodes whenever its sampled switch is 1
    class Fragile(QNNClassifier):
        family = "FRAGILE"

        @classmethod
        def build(cls, trial, X, config, registry, seed):
            if trial.suggest_int("explode", 0, 1) == 1:
                raise RuntimeError("injected failure")
            return super().build(trial, X, config, registry, seed)

    X, y = blobs40

    reg = Registry()
    for name in registry.embedding_names:
        reg.register("embedding", registry.embedding(name))
    for name in registry.layer_names:
        reg.register("layer", registry.layer(name))
    reg.register("model", Fragile)
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=12, n_seeds=1,
                          n_epochs=0, threshold=0.0, base_seed=0)
    records = [
        run_trial(Trial(i, derive_seed(0, i)), config, reg, X, y) for i in range(12)
    ]
    expected_failures = sum(1 for r in records if r.sampled.get("explode") == 1)
    assert expected_failures > 0
    assert sum(1 for r in records if r.status == "failed") == expected_failures
    assert all(r.error == "RuntimeError: injected failure"
               for r in records if r.status == "failed")


def test_a_layer_scaling_its_weight_fails_its_trials(blobs40):
    # RX(2w): the +-pi/2 shift would give the gradient at half its value or
    # worse, so the layer is refused when its circuit is compiled, not trained
    doubled = LayerKind("DoubledRX", lambda n: n, lambda n, w: [rx(i, 2 * w[i]) for i in range(n)])
    reg = Registry()
    reg.register("embedding", ANGLE).register("layer", doubled).register("model", QNNClassifier)
    X, y = blobs40
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_seeds=1, n_epochs=1, threshold=0.8)
    record = run_trial(Trial(0, derive_seed(0, 0)), config, reg, X, y)
    assert record.status == "failed" and record.sampled["layer_0"] == "DoubledRX"
    assert record.error == ("ValueError: layer DoubledRX: each weight must be the angle of "
                            "exactly one rotation gate")
    assert record.total_calls == 0


def test_a_refused_layer_is_refused_on_every_use(blobs40):
    # compile errors are not cached: each trial that draws the layer compiles
    # it again and records the same error, with nothing booked
    builds = []

    def doubled(n, w):
        builds.append(n)
        return [rx(i, 2 * w[i]) for i in range(n)]

    reg = Registry().register("embedding", ANGLE).register("model", QNNClassifier)
    reg.register("layer", LayerKind("DoubledRX", lambda n: n, doubled))
    X, y = blobs40
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_seeds=1, n_epochs=1, threshold=0.8)
    records = [run_trial(Trial(0, derive_seed(0, 0)), config, reg, X, y) for _ in range(2)]
    assert records[0].as_dict() == records[1].as_dict()
    assert records[0].error == ("ValueError: layer DoubledRX: each weight must be the angle "
                                "of exactly one rotation gate")
    assert records[0].total_calls == 0
    assert builds == [2] * 4  # the probe and its squares, at each use


def test_find_model_infeasible_best_flag(registry, tmp_path):
    # duplicate points carrying both labels pin every model at accuracy 0.5
    rng = PortableRng(2)
    X, y = [], []
    for _ in range(4):
        point = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        X += [point, point]
        y += [0, 1]
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=3, n_seeds=1,
                          n_epochs=0, threshold=1.0, base_seed=4)
    spec = find_model(config, registry, np.array(X), np.array(y),
                      StudyStore(tmp_path / "s.jsonl"))
    assert spec.metadata["feasible"] is False


def test_clustering_degenerate_trial_fails_cleanly(registry):
    # identical points: every assignment collapses to one cluster
    X = np.ones((10, 4))
    config = FinderConfig(task=TaskType.CLUSTERING, n_seeds=1, n_epochs=2, threshold=0.5)
    record = run_trial(Trial(0, derive_seed(0, 0)), config, registry, X, None)
    assert record.status == "failed"
    assert "silhouette" in record.error


# -- selection objective ------------------------------------------------------------


def _record(trial_id, status="complete", feasible=True, mean_score=0.9, calls=100):
    return TrialRecord(
        trial_id=trial_id,
        seed=0,
        sampled={},
        per_seed_scores=[mean_score] if mean_score is not None else [],
        mean_score=mean_score,
        total_calls=calls,
        subtotals={},
        feasible=feasible,
        status=status,
    )


def test_select_best_prefers_fewest_calls():
    a = _record(0, calls=500)
    b = _record(1, calls=300)
    best, feasible = select_best([a, b])
    assert best.trial_id == 1 and feasible


def test_select_best_tie_breaks():
    a = _record(0, calls=300, mean_score=0.85)
    b = _record(1, calls=300, mean_score=0.95)
    c = _record(2, calls=300, mean_score=0.95)
    best, _ = select_best([a, b, c])
    assert best.trial_id == 1  # higher score, then lower id


def test_select_best_infeasible_fallback():
    a = _record(0, feasible=False, mean_score=0.7, calls=10)
    b = _record(1, feasible=False, mean_score=0.75, calls=999)
    best, feasible = select_best([a, b])
    assert best.trial_id == 1 and not feasible


def test_select_best_ignores_failed():
    a = _record(0, status="failed", feasible=False, mean_score=None, calls=0)
    b = _record(1, feasible=False, mean_score=0.5, calls=50)
    best, feasible = select_best([a, b])
    assert best.trial_id == 1
    with pytest.raises(StudyFailureError):
        select_best([a])


def test_select_best_matches_brute_force_scan():
    rng = PortableRng(321)
    for _ in range(200):
        records = []
        for trial_id in range(rng.randint(1, 12)):
            status = "complete" if rng.random() < 0.8 else "failed"
            mean = None if status == "failed" else round(rng.uniform(0, 1), 3)
            feasible = status == "complete" and mean >= 0.5
            records.append(
                _record(trial_id, status=status, feasible=feasible, mean_score=mean,
                        calls=rng.randint(1, 1000))
            )
        complete = [r for r in records if r.status == "complete"]
        if not complete:
            with pytest.raises(StudyFailureError):
                select_best(records)
            continue
        best, feasible_found = select_best(records)
        feasible = [r for r in complete if r.feasible]
        pool = feasible if feasible else complete
        assert feasible_found == bool(feasible)
        for r in pool:
            if feasible:
                assert (best.total_calls, -best.mean_score, best.trial_id) <= (
                    r.total_calls, -r.mean_score, r.trial_id)
            else:
                assert (-best.mean_score, best.total_calls, best.trial_id) <= (
                    -r.mean_score, r.total_calls, r.trial_id)


# -- find_model ---------------------------------------------------------------------


@pytest.fixture
def small_study_config():
    return FinderConfig(
        task=TaskType.CLASSIFICATION, n_trials=6, n_seeds=2, n_epochs=2, threshold=0.8,
        base_seed=0,
    )


def test_find_model_returns_spec_and_respects_objective(
    registry, blobs40, small_study_config, tmp_path
):
    X, y = blobs40
    store = StudyStore(tmp_path / "study.jsonl")
    spec = find_model(small_study_config, registry, X, y, store)
    records = store.load()
    assert len(records) == 6
    best, feasible = select_best(records)
    assert spec.metadata["trial_id"] == best.trial_id
    assert spec.metadata["feasible"] == feasible
    assert spec.metadata["total_calls"] == best.total_calls
    model = model_from_spec(spec, registry)
    assert model.predict(X, __import__("qmlfinder").CallCounter()).shape == (40,)


def test_find_model_deterministic(registry, blobs40, small_study_config, tmp_path):
    X, y = blobs40
    spec1 = find_model(small_study_config, registry, X, y, StudyStore(tmp_path / "a.jsonl"))
    spec2 = find_model(small_study_config, registry, X, y, StudyStore(tmp_path / "b.jsonl"))
    assert spec1.to_json() == spec2.to_json()


def test_find_model_parallel_equivalence(registry, blobs40, tmp_path):
    X, y = blobs40
    serial = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=6, n_seeds=1, n_epochs=1,
                          threshold=0.8, base_seed=1, n_cores=1)
    parallel = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=6, n_seeds=1, n_epochs=1,
                            threshold=0.8, base_seed=1, n_cores=4)
    store1 = StudyStore(tmp_path / "serial.jsonl")
    store4 = StudyStore(tmp_path / "parallel.jsonl")
    spec1 = find_model(serial, registry, X, y, store1)
    spec4 = find_model(parallel, registry, X, y, store4)
    assert spec1.to_json() == spec4.to_json()
    by_id_1 = {r.trial_id: r.as_dict() for r in store1.load()}
    by_id_4 = {r.trial_id: r.as_dict() for r in store4.load()}
    assert by_id_1 == by_id_4


def test_find_model_store_bytes_match_under_n_cores(registry, blobs40, tmp_path):
    X, y = blobs40
    paths = {}
    for n_cores in (1, 4):
        config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=8, n_seeds=1, n_epochs=1,
                              threshold=0.8, base_seed=2, n_cores=n_cores)
        paths[n_cores] = tmp_path / f"cores{n_cores}.jsonl"
        find_model(config, registry, X, y, StudyStore(paths[n_cores]))
    assert paths[1].read_bytes() == paths[4].read_bytes()
    assert [r.trial_id for r in StudyStore(paths[4]).load()] == list(range(8))


def test_each_trial_is_stored_before_the_next_starts(registry, blobs40, tmp_path):
    log = []

    def logged(family):
        def build(cls, trial, X, config, registry, seed):
            model = family.build(trial, X, config, registry, seed)
            fit = model.fit

            def logged_fit(*args):
                log.append(("fit", seed))
                return fit(*args)

            model.fit = logged_fit
            return model
        return type(family.__name__, (family,), {"build": classmethod(build)})

    class LoggedStore(StudyStore):
        def append_trial(self, record):
            log.append(("append", record.trial_id))
            super().append_trial(record)

    reg = base_registry()
    for name in registry.models_for_task(TaskType.CLASSIFICATION):
        reg.register("model", logged(registry.model(name)))
    X, y = blobs40
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=8, n_seeds=2, n_epochs=1,
                          threshold=0.8, base_seed=2, n_cores=4)
    find_model(config, reg, X, y, LoggedStore(tmp_path / "study.jsonl"))
    seeds = [("fit", repeat_seed(2, k)) for k in range(2)]
    trials = [entry for t in range(8) for entry in seeds + [("append", t)]]
    assert log == trials  # and no fit follows the last append


@pytest.mark.parametrize("task", [TaskType.CLASSIFICATION, TaskType.CLUSTERING])
def test_a_study_builds_each_planned_model_once(registry, blobs40, cluster_blobs, task):
    builds = []

    def counted(family):
        def build(cls, trial, X, config, registry, seed):
            builds.append(seed)
            return family.build(trial, X, config, registry, seed)
        return type(family.__name__, (family,), {"build": classmethod(build)})

    reg = base_registry()
    for name in registry.models_for_task(task):
        reg.register("model", counted(registry.model(name)))
    X, y = blobs40 if task == TaskType.CLASSIFICATION else (cluster_blobs, None)
    config = FinderConfig(task=task, n_trials=6, n_seeds=3, n_epochs=1, base_seed=1)
    find_model(config, reg, X, y)
    assert sorted(builds) == sorted(repeat_seed(1, k) for k in range(3) for _ in range(6))


@pytest.mark.parametrize("base_seed", [0, 1, 2])
def test_saved_model_is_a_fresh_rebuild_of_the_winner(
    registry, blobs40, sine20, cluster_blobs, base_seed
):
    from qmlfinder import BudgetLedger

    studies = {TaskType.CLASSIFICATION: blobs40, TaskType.REGRESSION: sine20,
               TaskType.CLUSTERING: (cluster_blobs, None)}
    for task, (X, y) in studies.items():
        config = FinderConfig(task=task, n_trials=4, n_seeds=2, n_epochs=2, base_seed=base_seed)
        spec = find_model(config, registry, X, y)
        trial_id = spec.metadata["trial_id"]
        trial = Trial(trial_id, derive_seed(base_seed, trial_id))
        model = _suggest_and_build(trial, config, registry, X, repeat_seed(base_seed, 0))
        _fit_and_score(model, X, y, BudgetLedger())
        assert model_to_spec(model, X.shape[1], spec.metadata).to_json() == spec.to_json()


# -- encoder training in a study ----------------------------------------------------


def _clustering_config(**overrides):
    options = dict(task=TaskType.CLUSTERING, n_trials=20, n_seeds=3, n_epochs=10,
                   threshold=0.8, base_seed=0)
    options.update(overrides)
    return FinderConfig(**options)


def _record_encoder_fits(monkeypatch):
    """Per RBMClusterer.fit: its encoder key (widths, seed) and whether it
    trained; and the key of every encoder BinaryEncoder.train trained, those
    trained alongside included, inside a fit or not."""
    fits, trained, fitting = [], [], []
    init, fit, train = RBMClusterer.__init__, RBMClusterer.fit, BinaryEncoder.train

    def recording_init(self, **kwargs):
        init(self, **kwargs)
        self.encoder.key = (tuple(self.encoder.widths), self.seed)

    def recording_fit(self, X, y=None, ledger=None):
        fits.append([self.encoder.key, False])
        fitting.append(True)
        try:
            return fit(self, X, y, ledger)
        finally:
            fitting.pop()

    def recording_train(self, X, n_epochs, learning_rate=0.5, alongside=()):
        trained.extend(encoder.key for encoder in (self, *alongside))
        if fitting:
            fits[-1][1] = True
        return train(self, X, n_epochs, learning_rate, alongside)

    monkeypatch.setattr(RBMClusterer, "__init__", recording_init)
    monkeypatch.setattr(RBMClusterer, "fit", recording_fit)
    monkeypatch.setattr(BinaryEncoder, "train", recording_train)
    return fits, trained


def test_clustering_study_trains_each_distinct_encoder_once(
    registry, cluster_blobs, tmp_path, monkeypatch
):
    fits, trained = _record_encoder_fits(monkeypatch)
    config, store = _clustering_config(), StudyStore(tmp_path / "study.jsonl")
    find_model(config, registry, cluster_blobs, None, store)
    keys = [key for key, _ in fits]
    assert len(keys) > len(set(keys))  # the study does ask for the same encoder again
    # every (trial, repeat) is planned before the first trial, also the repeats
    # a trial never reaches once an earlier repeat has failed
    planned = {
        (tuple(BinaryEncoder(4, r.sampled["lbae_n_layers"], r.sampled["lbae_out_channels"], 0)
               .widths), repeat_seed(config.base_seed, k))
        for r in store.load() for k in range(config.n_seeds)
    }
    assert sorted(trained) == sorted(planned)
    assert set(keys) <= planned
    assert not any(did_train for _, did_train in fits)
    assert fits[-1][1] is False  # the winner refit reuses a trial's encoder


def test_encoder_memo_does_not_outlive_a_study(registry, cluster_blobs, monkeypatch):
    _, trained = _record_encoder_fits(monkeypatch)
    config = _clustering_config(n_trials=4, n_seeds=2)
    per_study = []
    for _ in range(2):
        trained.clear()
        find_model(config, registry, cluster_blobs, None)
        per_study.append(list(trained))
    assert per_study[0] and per_study[0] == per_study[1]


def test_failures_reach_their_trials_as_without_the_prepass(cluster_blobs, tmp_path, monkeypatch):
    """A family whose build raises, and data no fit accepts, leave the same
    records and winner as a study without the encoder pre-pass."""

    class Broken(RBMClusterer):
        family = "BROKEN"

        @classmethod
        def build(cls, trial, X, config, registry, seed):
            raise RuntimeError("build broke")

    registry = base_registry().register("model", RBMClusterer).register("model", Broken)
    outcomes = []
    for prepass in ("with", "without"):
        if prepass == "without":  # each fit trains its own encoder and RBM
            monkeypatch.setattr(search, "_prepare", lambda plan, registry, X, y: None)
        study = tmp_path / f"study-{prepass}.jsonl"
        empty = tmp_path / f"empty-{prepass}.jsonl"
        config = _clustering_config(n_trials=6, n_seeds=2, base_seed=2)
        spec = find_model(config, registry, cluster_blobs, None, StudyStore(study))
        with pytest.raises(StudyFailureError):
            find_model(_clustering_config(n_trials=4, n_seeds=2), registry, cluster_blobs[:0],
                       None, StudyStore(empty))
        outcomes.append((study.read_bytes(), spec.to_json(), empty.read_bytes()))
    assert outcomes[0] == outcomes[1]
    errors = [r.error for r in StudyStore(study).load()]
    assert "RuntimeError: build broke" in errors
    assert any(r.status == "complete" for r in StudyStore(study).load())


@pytest.mark.parametrize("base_seed", [0, 1, 2])
def test_supervised_failures_reach_their_trials_as_without_the_prepass(blobs40, sine20, tmp_path,
                                                                       monkeypatch, base_seed):
    """Classification and regression studies write the same stores and model
    files with the QNN lockstep pre-pass and without it, where some fits fail
    inside the pre-pass: a refused layer, a row AMPLITUDE cannot embed, and
    constant regression targets. Each fails in its own trial, with its error
    text, and the other trials complete."""
    doubled = LayerKind("DoubledRX", lambda n: n, lambda n, w: [rx(i, 2 * w[i]) for i in range(n)])
    registry = default_registry().register("layer", doubled)
    studies = {}
    for task, (X, y) in ((TaskType.CLASSIFICATION, blobs40), (TaskType.REGRESSION, sine20)):
        zero = np.zeros((1, X.shape[1]))  # ANGLE embeds it, AMPLITUDE refuses it
        studies[task] = np.concatenate([X, zero]), np.append(y, y[0])
    outcomes, errors = [], set()
    for prepass in ("with", "without"):
        if prepass == "without":  # each fit simulates its own training
            monkeypatch.setattr(search, "_prepare", lambda plan, registry, X, y: None)
        outcome = []
        for task, (X, y) in studies.items():
            config = FinderConfig(task=task, n_trials=20, n_seeds=2, n_epochs=3,
                                  base_seed=base_seed)
            study = tmp_path / f"{task.value}-{prepass}.jsonl"
            spec = find_model(config, registry, X, y, StudyStore(study))
            records = StudyStore(study).load()
            assert any(r.status == "complete" for r in records)
            errors.update(r.error for r in records if r.error)
            outcome += [study.read_bytes(), spec.to_json()]
        constant = tmp_path / f"constant-{prepass}.jsonl"
        config = FinderConfig(task=TaskType.REGRESSION, n_trials=4, n_seeds=2, n_epochs=3,
                              base_seed=base_seed)
        with pytest.raises(StudyFailureError):
            find_model(config, registry, sine20[0], np.full(20, 0.5), StudyStore(constant))
        assert {r.error for r in StudyStore(constant).load()} == {
            "ValueError: constant targets: rescaling to [-1, 1] is undefined"}
        outcomes.append(outcome + [constant.read_bytes()])
    assert outcomes[0] == outcomes[1]
    assert {"ValueError: layer DoubledRX: each weight must be the angle of exactly one rotation "
            "gate", "ValueError: AMPLITUDE embedding of an all-zero vector is undefined"} <= errors


def test_clustering_store_bytes_match_under_n_cores(registry, cluster_blobs, tmp_path):
    paths, specs = {}, {}
    for n_cores in (1, 2, 4):
        paths[n_cores] = tmp_path / f"cores{n_cores}.jsonl"
        config = _clustering_config(n_trials=12, n_seeds=2, base_seed=1, n_cores=n_cores)
        specs[n_cores] = find_model(config, registry, cluster_blobs, None,
                                    StudyStore(paths[n_cores])).to_json()
    assert paths[1].read_bytes() == paths[2].read_bytes() == paths[4].read_bytes()
    assert specs[1] == specs[2] == specs[4]


def _clusterer(seed=3, **overrides):
    options = dict(input_size=4, encoder_layers=2, latent_size=3, n_hidden=2,
                   firing_threshold=0.5, n_epochs=10, seed=seed)
    return RBMClusterer(**{**options, **overrides})


def _encoder_stacks(model):
    encoder = model.encoder
    return [encoder.enc_weights, encoder.enc_biases, encoder.dec_weights, encoder.dec_biases]


def _assert_same_encoder(model, other):
    for stack, other_stack in zip(_encoder_stacks(model), _encoder_stacks(other)):
        assert len(stack) == len(other_stack)
        for a, b in zip(stack, other_stack):
            assert np.array_equal(a, b)


def test_memo_hit_fits_the_same_model_as_no_memo(cluster_blobs, monkeypatch):
    fits, trained = _record_encoder_fits(monkeypatch)
    miss, hit = _clusterer(), _clusterer()
    RBMClusterer.prepare([miss, hit], cluster_blobs)
    miss.fit(cluster_blobs)
    hit.fit(cluster_blobs)
    assert fits == [[((4, 4, 3), 3), False]] * 2 and trained == [((4, 4, 3), 3)]
    monkeypatch.undo()
    plain = _clusterer().fit(cluster_blobs)
    assert hit.spec_fields() == plain.spec_fields() == miss.spec_fields()
    _assert_same_encoder(hit, plain)


def test_mutating_a_memo_model_leaves_later_hits_intact(cluster_blobs):
    models = [_clusterer(), _clusterer()]
    RBMClusterer.prepare(models, cluster_blobs)
    first, later = models
    for stack in _encoder_stacks(first.fit(cluster_blobs)):
        for array in stack:
            array += 1.0
    later.fit(cluster_blobs)
    plain = _clusterer().fit(cluster_blobs)
    assert later.spec_fields() == plain.spec_fields()
    _assert_same_encoder(later, plain)


def test_a_clusterer_prepared_on_other_data_trains_afresh(cluster_blobs):
    prepared = _clusterer()
    RBMClusterer.prepare([prepared], cluster_blobs[::2])
    prepared.fit(cluster_blobs)
    plain = _clusterer().fit(cluster_blobs)
    assert prepared.spec_fields() == plain.spec_fields()
    _assert_same_encoder(prepared, plain)


def _record_rbm_trainings(monkeypatch):
    """The models handed to RBMClusterer.prepare, and each model whose RBM
    trains: the members of each trained stack, in order."""
    prepared, trainings = [], []
    prepare, train_rbms = RBMClusterer.prepare, RBMClusterer._train_rbms

    def recording_prepare(models, X, y=None):
        prepared.extend(models)
        prepare(models, X, y)

    def recording_train_rbms(models, X):
        trainings.extend(models)
        train_rbms(models, X)

    monkeypatch.setattr(RBMClusterer, "prepare", staticmethod(recording_prepare))
    monkeypatch.setattr(RBMClusterer, "_train_rbms", staticmethod(recording_train_rbms))
    return prepared, trainings


def _rbm_key(model):
    return tuple(model.encoder.widths), model.seed, model.n_hidden, model.n_epochs


# n_seeds=1 is the bench's cluster-blobs study (30 rows, 20 trials x 1 seed x 10 epochs)
@pytest.mark.parametrize("n_seeds, distinct", [(1, 11), (3, None)], ids=["bench", "three_seeds"])
def test_a_study_trains_each_distinct_rbm_once(registry, cluster_blobs, monkeypatch, n_seeds,
                                               distinct):
    prepared, trainings = _record_rbm_trainings(monkeypatch)
    find_model(_clustering_config(n_seeds=n_seeds), registry, cluster_blobs, None)
    keys = {_rbm_key(model) for model in prepared}
    assert len(prepared) == 20 * n_seeds
    assert sorted(map(_rbm_key, trainings)) == sorted(keys)
    if distinct is not None:
        assert len(keys) == distinct


def test_every_prepared_clusterer_fits_as_without_prepare(registry, cluster_blobs, monkeypatch):
    """On the 20 x 3 x 10 study, whose repeat-0 models are the bench study's."""
    prepared, trainings = _record_rbm_trainings(monkeypatch)
    find_model(_clustering_config(), registry, cluster_blobs, None)
    trainings.clear()
    for model in prepared:  # the repeats no trial reached included
        model.fit(cluster_blobs)
    assert prepared and trainings == []
    monkeypatch.undo()
    for model in prepared:  # a fresh model's fit trains it alone
        plain = RBMClusterer(input_size=model.input_size, encoder_layers=model.encoder_layers,
                             latent_size=model.latent_size, n_hidden=model.n_hidden,
                             firing_threshold=model.firing_threshold, n_epochs=model.n_epochs,
                             seed=model.seed).fit(cluster_blobs)
        assert model.spec_fields() == plain.spec_fields()


def test_prepare_shares_an_rbm_only_within_its_key(cluster_blobs, monkeypatch):
    variants = [{}, {"firing_threshold": 0.4}, {"n_epochs": 5}, {"n_hidden": 3}, {"seed": 4}]
    models = [_clusterer(**variant) for variant in variants]
    _, trainings = _record_rbm_trainings(monkeypatch)
    RBMClusterer.prepare(models, cluster_blobs)
    assert trainings == [models[0], *models[2:]]  # the threshold alone shares an RBM
    monkeypatch.undo()
    for variant, model in zip(variants, models):
        plain = _clusterer(**variant).fit(cluster_blobs)
        assert model.fit(cluster_blobs).spec_fields() == plain.spec_fields()


def test_a_clusterer_refit_on_the_same_data_trains_nothing(cluster_blobs):
    model = _clusterer().fit(cluster_blobs)
    fitted = model.spec_fields()
    assert model.fit(cluster_blobs).spec_fields() == fitted


def test_find_model_requires_targets_for_supervised(registry):
    config = FinderConfig(task=TaskType.REGRESSION, n_trials=1)
    with pytest.raises(ValueError):
        find_model(config, registry, np.zeros((4, 2)), None, None)


def test_find_model_study_failure(registry):
    # every trial fails: all-zero rows break both AMPLITUDE and the classifier?
    # no -- use constant-target regression, which every trial rejects
    config = FinderConfig(task=TaskType.REGRESSION, n_trials=3, n_seeds=1, n_epochs=1)
    X = np.array([[0.1], [0.2], [0.3]])
    y = np.array([5.0, 5.0, 5.0])
    with pytest.raises(StudyFailureError):
        find_model(config, registry, X, y, None)


def test_non_finite_data_is_refused_before_any_trial(registry, blobs40, sine20, tmp_path):
    from qmlfinder import ANGLE, BASIC_ENTANGLER, CircuitSpec, QNNClassifier
    from qmlfinder.store import model_to_spec

    X, y = blobs40
    X_nan = X.copy()
    X_nan[3, 1] = np.nan
    store = StudyStore(tmp_path / "study.jsonl")
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=2, n_seeds=1, n_epochs=1)
    with pytest.raises(ValueError, match=r"^X holds non-finite"):
        find_model(config, registry, X_nan, y, store)
    X_sine, y_sine = sine20
    y_inf = y_sine.copy()
    y_inf[2] = np.inf
    config = FinderConfig(task=TaskType.REGRESSION, n_trials=2, n_seeds=1, n_epochs=1)
    with pytest.raises(ValueError, match=r"^y holds non-finite"):
        find_model(config, registry, X_sine, y_inf, store)
    qnn = QNNClassifier(CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)), batch_size=4, n_epochs=1,
                        accuracy_threshold=0.8, seed=0)
    spec = model_to_spec(qnn, 2, {})
    with pytest.raises(ValueError, match=r"^X holds non-finite"):
        find_hyperparameters(spec, X_nan, y, registry, n_trials=1, n_seeds=1, store=store)
    with pytest.raises(ValueError, match=r"^y holds non-finite"):
        find_hyperparameters(spec, X, np.where(y == 1, np.nan, 0.0), registry, n_trials=1,
                             n_seeds=1, store=store)
    assert store.load() == []


@pytest.mark.parametrize("task", [TaskType.CLASSIFICATION, TaskType.REGRESSION])
def test_targets_not_one_per_row_are_refused_before_any_trial(task, registry, blobs40, sine20,
                                                              tmp_path, monkeypatch):
    from qmlfinder import BASIC_ENTANGLER, CircuitSpec

    trials = []
    monkeypatch.setattr(search, "evaluate_config",
                        lambda trial, *args: trials.append(trial) or None)
    X, y = blobs40 if task is TaskType.CLASSIFICATION else sine20
    X, y = X[:10], y[-12:]  # 10 rows, 12 targets
    family = QNNClassifier if task is TaskType.CLASSIFICATION else QNNRegressor
    model = family(CircuitSpec(X.shape[1], ANGLE, (BASIC_ENTANGLER,)), batch_size=4,
                   n_epochs=1, seed=0, **{family.threshold_key: 0.5})
    spec = model_to_spec(model, X.shape[1], {})
    store = StudyStore(tmp_path / "study.jsonl")
    message = r"^y holds 12 targets but X holds 10 rows$"
    with pytest.raises(ValueError, match=message):
        ModelFinder(task, X, y, registry=registry, store=store, n_trials=2, n_seeds=1,
                    n_epochs=1).find_model()
    with pytest.raises(ValueError, match=message):
        HyperparameterTuner(X, y, spec, registry=registry, store=store, n_trials=2,
                            n_seeds=1).find_hyperparameters()
    assert trials == [] and store.load() == []


def test_find_model_regression_end_to_end(registry, sine20, tmp_path):
    X, y = sine20
    config = FinderConfig(task=TaskType.REGRESSION, n_trials=4, n_seeds=1, n_epochs=3,
                          threshold=0.5, base_seed=2)
    spec = find_model(config, registry, X, y, StudyStore(tmp_path / "reg.jsonl"))
    assert spec.model_family == "QNN_REGRESSOR"
    model = model_from_spec(spec, registry)
    predictions = model.predict(X, __import__("qmlfinder").CallCounter())
    assert predictions.shape == y.shape


# -- tuner --------------------------------------------------------------------------


def _trained_qnn_spec(registry, blobs40, tmp_path):
    X, y = blobs40
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=3, n_seeds=1, n_epochs=2,
                          threshold=0.8, base_seed=0)
    # force a QNN winner by restricting the registry to the QNN family
    reg = Registry()
    for name in registry.embedding_names:
        reg.register("embedding", registry.embedding(name))
    for name in registry.layer_names:
        reg.register("layer", registry.layer(name))
    reg.register("model", registry.model("QNN"))
    return find_model(config, reg, X, y, None), reg


def test_tuner_returns_config_within_bounds(registry, blobs40, tmp_path):
    spec, reg = _trained_qnn_spec(registry, blobs40, tmp_path)
    X, y = blobs40
    store = StudyStore(tmp_path / "tune.jsonl")
    best = find_hyperparameters(spec, X, y, reg, n_trials=4, n_seeds=1, store=store, base_seed=0)
    assert best.kind in ("vanilla_gd", "momentum_gd", "adam")
    assert 1e-3 <= best.learning_rate <= 0.5
    records = store.load()
    assert len(records) == 4
    for record in records:
        assert 1e-3 <= record.sampled["learning_rate"] <= 0.5
        if record.sampled["optimizer"] == "momentum_gd":
            assert 0.0 <= record.sampled["momentum"] <= 0.99


def test_tuner_wrapper_equals_find_hyperparameters(registry, blobs40, tmp_path):
    spec, reg = _trained_qnn_spec(registry, blobs40, tmp_path)
    X, y = blobs40
    runs = []
    for name, tune in [
        ("plain", lambda store: find_hyperparameters(spec, X, y, reg, n_trials=3, n_seeds=2,
                                                     store=store, base_seed=4)),
        ("wrapper", lambda store: HyperparameterTuner(X, y, spec, registry=reg, store=store,
                                                      n_trials=3, n_seeds=2,
                                                      base_seed=4).find_hyperparameters()),
    ]:
        path = tmp_path / f"{name}.jsonl"
        runs.append((tune(StudyStore(path)), path.read_bytes()))
    assert runs[0] == runs[1]


def test_readme_python_quick_start_runs_as_written(blobs40, capsys):
    # the README's block, run on blobs40 with the default registry, picks the
    # model find_model picks under the same configuration
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Quick start (Python)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    X, y = blobs40
    namespace = {"X": X, "y": y}
    exec(block, namespace)
    config = FinderConfig(task=TaskType.CLASSIFICATION, n_trials=20, n_seeds=3, n_epochs=10,
                          threshold=0.8)
    assert namespace["spec"].to_json() == find_model(config, default_registry(), X, y).to_json()
    assert capsys.readouterr().out.startswith(namespace["spec"].model_family + " {")


def test_tuner_lr_bounds_over_many_draws():
    rng_trials = 1000
    from qmlfinder.search import TUNER_LEARNING_RATE_RANGE

    trial = Trial(0, seed=3)
    for i in range(rng_trials):
        value = trial.suggest_float(f"lr{i}", *TUNER_LEARNING_RATE_RANGE, log=True)
        assert 1e-3 <= value <= 0.5


def test_tuner_selects_best_mean_then_fewest_calls(registry, blobs40, tmp_path):
    spec, reg = _trained_qnn_spec(registry, blobs40, tmp_path)
    X, y = blobs40
    store = StudyStore(tmp_path / "tune2.jsonl")
    best = find_hyperparameters(spec, X, y, reg, n_trials=5, n_seeds=1, store=store, base_seed=1)
    records = store.load()
    complete = [r for r in records if r.status == "complete"]
    ranked = sorted(complete, key=lambda r: (-r.mean_score, r.total_calls, r.trial_id))
    winner = ranked[0]
    assert winner.sampled["optimizer"] == best.kind
    assert winner.sampled["learning_rate"] == best.learning_rate


def test_tuner_single_trial_returns_that_config(registry, blobs40, tmp_path):
    spec, reg = _trained_qnn_spec(registry, blobs40, tmp_path)
    X, y = blobs40
    store = StudyStore(tmp_path / "single.jsonl")
    best = find_hyperparameters(spec, X, y, reg, n_trials=1, n_seeds=1, store=store,
                                base_seed=5)
    (record,) = store.load()
    assert record.sampled["optimizer"] == best.kind
    assert record.sampled["learning_rate"] == best.learning_rate


@pytest.mark.parametrize("name", ["n_trials", "n_seeds"])
def test_tuner_refuses_counts_below_one_before_any_trial(registry, blobs40, tmp_path, name):
    from qmlfinder import ANGLE, BASIC_ENTANGLER, CircuitSpec, QNNClassifier
    from qmlfinder.store import model_to_spec

    X, y = blobs40
    qnn = QNNClassifier(CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)), batch_size=4, n_epochs=1,
                        accuracy_threshold=0.8, seed=0)
    store = StudyStore(tmp_path / "tune.jsonl")
    counts = {"n_trials": 2, "n_seeds": 2, name: 0}
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got 0$"):
        find_hyperparameters(model_to_spec(qnn, 2, {}), X, y, registry, store=store, **counts)
    assert store.load() == []


@pytest.mark.parametrize("options", [{"n_trials": 2.5}, {"n_trials": True}, {"n_seeds": 1.5},
                                     {"n_seeds": True}, {"n_seeds": "2"}, {"base_seed": 0.5},
                                     {"base_seed": None}])
def test_tuner_refuses_counts_of_the_wrong_type_before_any_trial(registry, blobs40, tmp_path,
                                                                 options):
    from qmlfinder import ANGLE, BASIC_ENTANGLER, CircuitSpec, QNNClassifier
    from qmlfinder.store import model_to_spec

    X, y = blobs40
    qnn = QNNClassifier(CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)), batch_size=4, n_epochs=1,
                        accuracy_threshold=0.8, seed=0)
    store = StudyStore(tmp_path / "tune.jsonl")
    (name,) = options
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        find_hyperparameters(model_to_spec(qnn, 2, {}), X, y, registry, store=store,
                             **{"n_trials": 1, "n_seeds": 1, **options})
    assert store.load() == []


@pytest.mark.parametrize("task", [TaskType.CLUSTERING, TaskType.REGRESSION])
def test_a_range_past_the_float_range_fails_each_trial(tmp_path, task):
    # the min-max scaling is refused, not computed with an overflow warning
    X = np.column_stack([np.linspace(0.0, 1.0, 8), np.linspace(1.0, 2.0, 8)])
    huge = np.array([1e308, -1e308] * 4)
    if task == TaskType.CLUSTERING:
        X, y, name = np.column_stack([X, huge]), None, "feature 2 range"
    else:
        X, y, name = X[:, :1], huge, "target range"
    store = StudyStore(tmp_path / "s.jsonl")
    config = FinderConfig(task=task, n_trials=3, n_seeds=1, n_epochs=1)
    with pytest.raises(StudyFailureError):
        find_model(config, default_registry(), X, y, store)
    records = store.load()
    assert len(records) == 3
    for record in records:
        assert record.status == "failed"
        assert record.error == f"ValueError: {name} -1e+308 to 1e+308 overflows the float range"


def test_tuner_reruns_are_byte_identical(registry, blobs40, tmp_path):
    spec, reg = _trained_qnn_spec(registry, blobs40, tmp_path)
    X, y = blobs40
    runs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.jsonl"
        best = find_hyperparameters(spec, X, y, reg, n_trials=4, n_seeds=2,
                                    store=StudyStore(path), base_seed=3)
        runs.append((path.read_bytes(), best))
    assert runs[0] == runs[1]


def test_tuner_rejects_non_gradient_families(registry, blobs8):
    X, y = blobs8
    from qmlfinder import BudgetLedger, QEKClassifier, CircuitSpec, ANGLE, BASIC_ENTANGLER
    from qmlfinder.store import model_to_spec

    qek = QEKClassifier(CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,) * 3), seed=0)
    qek.fit(X, y, BudgetLedger())
    spec = model_to_spec(qek, 2, {"mean_score": 1.0, "total_calls": 1, "base_seed": 0,
                                  "feasible": True})
    with pytest.raises(UnsupportedModelError):
        find_hyperparameters(spec, X, y, registry, n_trials=1, n_seeds=1)
