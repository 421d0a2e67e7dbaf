"""Sample selection and relabelling for learning with noisy labels."""

__version__ = "0.1.0"

from .data import OPEN_SET, LabelState, NoisyDataset, TrainConfig
from .errors import ConfigError, DataError, NumericError, SsrError
from .noise import NoiseSpec, SynthSpec, apply_noise, make_gaussian_dataset
from .pipeline import (ExperimentOutcome, ExperimentRecord,
                       compare_selection_modes, run_experiment)
from .relabel import relabel
from .selector import (SelectionResult, build_neighbour_index,
                       compute_selection, select_clean)
from .ssrd import load_embeddings, load_pool, write_dataset, write_pool

__all__ = [
    "OPEN_SET", "LabelState", "NoisyDataset", "TrainConfig",
    "ConfigError", "DataError", "NumericError", "SsrError",
    "NoiseSpec", "SynthSpec", "apply_noise", "make_gaussian_dataset",
    "ExperimentOutcome", "ExperimentRecord", "compare_selection_modes",
    "run_experiment", "relabel",
    "SelectionResult", "build_neighbour_index", "compute_selection",
    "select_clean",
    "load_embeddings", "load_pool", "write_dataset", "write_pool",
]
