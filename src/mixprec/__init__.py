"""Resource-aware mixed-precision quantization for a small forecasting transformer.

Workflow: build or load a knowledge database of per-component FPGA resource
utilization, estimate any bitwidth combination's total utilization, search the
3^10 combination space under per-resource thresholds, then train, quantize,
and validate the selected combinations with an integer-only model.
"""

from .components import (
    ALL_COMPONENTS,
    KEY_COMPONENTS,
    OVERHEAD_COMPONENTS,
    RESOURCE_ORDER,
    VALID_BITWIDTHS,
    BitwidthCombination,
    ComponentId,
    ResourceKind,
)
from .estimator import EstimateOptions, estimate, estimate_uniform
from .knowledge import (
    KnowledgeDatabase,
    ResourceVector,
    SynthesisReport,
    aggregate,
    bundled_database,
    load,
    parse_report,
    save,
)
from .model import FloatModel, ModelConfig, forward_float, init, load_model, save_model
from .quant import (
    QuantParams,
    QuantizedTensor,
    Requantizer,
    calibrate_asymmetric,
    dequantize,
    derive_bias_params,
    make_requantizer,
    quantize,
    requantize,
)
from .quantized import (
    CalibrationSet,
    QuantizedModel,
    calibrate,
    forward_fake_quant,
    forward_integer,
    quantize_model,
)
from .search import (
    CandidateSet,
    ScoredCandidate,
    SearchResult,
    Thresholds,
    enumerate_all,
    filter_candidates,
    search,
    select_top,
)
from .training import TrainConfig, TrainReport, backward, train, train_qat

__version__ = "0.1.0"

__all__ = [
    "ALL_COMPONENTS",
    "KEY_COMPONENTS",
    "OVERHEAD_COMPONENTS",
    "RESOURCE_ORDER",
    "VALID_BITWIDTHS",
    "BitwidthCombination",
    "CalibrationSet",
    "CandidateSet",
    "ComponentId",
    "EstimateOptions",
    "FloatModel",
    "KnowledgeDatabase",
    "ModelConfig",
    "QuantParams",
    "QuantizedModel",
    "QuantizedTensor",
    "Requantizer",
    "ResourceKind",
    "ResourceVector",
    "ScoredCandidate",
    "SearchResult",
    "SynthesisReport",
    "Thresholds",
    "TrainConfig",
    "TrainReport",
    "aggregate",
    "backward",
    "bundled_database",
    "calibrate",
    "calibrate_asymmetric",
    "dequantize",
    "derive_bias_params",
    "estimate",
    "estimate_uniform",
    "enumerate_all",
    "filter_candidates",
    "forward_fake_quant",
    "forward_float",
    "forward_integer",
    "init",
    "load",
    "load_model",
    "make_requantizer",
    "parse_report",
    "quantize",
    "quantize_model",
    "requantize",
    "save",
    "save_model",
    "search",
    "select_top",
    "train",
    "train_qat",
]
