"""Word-by-word incremental NLU with add/revoke edit semantics.

Typical use::

    from incnlu import default_config, load_dataset, train_pipeline, EditType

    dataset = load_dataset("data/snips_train.json")
    interp = train_pipeline(default_config(), dataset)
    interp.parse_incremental(EditType.ADD, "play")
    result = interp.parse_incremental(EditType.ADD, "jazz")
"""

from .config import ComponentSpec, PipelineConfig, default_config, load_config, parse_config
from .data import (
    EntityAnnotation,
    TrainingDataset,
    TrainingExample,
    load_dataset,
    load_json,
    load_markdown,
    save_json,
    stratified_split,
)
from .errors import (
    BufferUnderflowError,
    BundleError,
    ConfigError,
    ConsistencyError,
    DataError,
    IncnluError,
    InvalidPayloadError,
    ParameterError,
)
from .evaluation import (
    REFERENCE_F1,
    EvalReport,
    NoiseConfig,
    evaluate,
    f1_entities,
    f1_intent,
    run_equivalence,
    run_noise_protocol,
)
from .features import Vocabulary, count_vector, tokenize
from .interpreter import IncrementalInterpreter, load, train_pipeline
from .iu import Blackboard, EditType, IncrementalUnit, IuBuffer
from .results import EntitySpan, NluResult

__version__ = "0.1.0"

__all__ = [
    "Blackboard",
    "BufferUnderflowError",
    "BundleError",
    "ComponentSpec",
    "ConfigError",
    "ConsistencyError",
    "DataError",
    "EditType",
    "EntityAnnotation",
    "EntitySpan",
    "EvalReport",
    "IncnluError",
    "IncrementalInterpreter",
    "IncrementalUnit",
    "InvalidPayloadError",
    "IuBuffer",
    "NluResult",
    "NoiseConfig",
    "ParameterError",
    "PipelineConfig",
    "REFERENCE_F1",
    "TrainingDataset",
    "TrainingExample",
    "Vocabulary",
    "count_vector",
    "default_config",
    "evaluate",
    "f1_entities",
    "f1_intent",
    "load",
    "load_config",
    "load_dataset",
    "load_json",
    "load_markdown",
    "parse_config",
    "run_equivalence",
    "run_noise_protocol",
    "save_json",
    "stratified_split",
    "tokenize",
    "train_pipeline",
    "__version__",
]
