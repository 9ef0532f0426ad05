"""memaudit: does a generative model's synthetic image set memorize its training set?

For every synthetic image the toolkit finds the training images with the
highest Pearson correlation, compares the resulting distribution against a
held-out baseline, and flags likely memorized outputs. Secondary metrics
(SSIM, mutual information, FID, Inception Score) and a planted-copy
validation harness round out the audit.

Every name in __all__ is imported from its submodule on first use (PEP
562), so ``import memaudit`` loads no numpy: the command line sets its
BLAS library's environment before anything loads it (see memaudit.cli).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("Dataset", "ImageRecord", "VolumeRecord", "default_channel_mask", "pearson"),
    "correlate": (
        "ComparisonPlan", "TopKMatches", "brute_force_correlations", "max_correlations",
        "plan_audit",
    ),
    "errors": (
        "EmptyInputError", "FormatError", "InvalidArgumentError", "ManifestError",
        "MemauditError", "UndefinedCorrelationError", "UnsupportedVersionError",
    ),
    "harness": ("PlantConfig", "evaluate_detector", "generate_train_set", "plant"),
    "ingest": (
        "DatasetFile", "EmbeddingSet", "EmbeddingSetFile", "load_dataset", "load_embedding_set",
        "load_manifest", "open_dataset", "open_embedding_set", "read_embeddings", "read_ivc",
        "read_pgm", "write_embeddings", "write_ivc", "write_pgm",
    ),
    "metrics": (
        "GaussianStats", "SsimParams", "fid", "gaussian_stats", "inception_score",
        "matrix_sqrt_psd", "mutual_information", "ssim",
    ),
    "report": (
        "AuditReport", "DistributionSummary", "build_audit_report", "derive_threshold",
        "export_report", "flag_memorized", "histogram", "summarize",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
