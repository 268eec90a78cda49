"""Auto quantum machine learning: given a dataset and a task, search over
variational circuit architectures and hyperparameters on a built-in
statevector simulator and return the model that meets the quality threshold
with the fewest simulated device calls."""

from .models import (
    QEKClassifier,
    QNNClassifier,
    QNNRegressor,
    RBMClusterer,
    Score,
    ScoreUndefinedError,
    default_registry,
    kernel_matrix,
    silhouette_score,
    suggest_unsupervised_kwargs,
)
from .records import StudyFailureError, TrialRecord, select_best
from .registry import (
    AMPLITUDE,
    ANGLE,
    BASIC_ENTANGLER,
    STRONGLY_ENTANGLING,
    CircuitSpec,
    EmbeddingKind,
    LayerKind,
    Registry,
    TaskType,
    base_registry,
    build_layer,
    embed,
    register,
    suggest_circuit,
    suggest_embedding,
    suggest_layers,
)
from .rng import SEED_STRIDE, PortableRng, derive_seed, repeat_seed, splitmix64
from .search import (
    FinderConfig,
    HyperparameterTuner,
    ModelFinder,
    Trial,
    UnsupportedModelError,
    find_hyperparameters,
    find_model,
    run_trial,
)
from .simulator import (
    CallCounter,
    Gate,
    StatePrep,
    Statevector,
    apply_gate,
    cnot,
    expectation_z,
    fidelity,
    h,
    parameter_shift_gradient,
    pauli_z,
    rot,
    run_circuit,
    rx,
    ry,
    rz,
)
from .store import (
    ModelSpec,
    StoreCorruptionError,
    StudyStore,
    export_report,
    model_from_spec,
    model_to_spec,
    read_model_spec,
    write_model_spec,
)
from .training import (
    BudgetLedger,
    OptimizerConfig,
    OptState,
    TrainResult,
    init_opt_state,
    step,
    train_epochs,
)

__version__ = "0.1.0"
