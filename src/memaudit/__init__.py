"""memaudit: does a generative model's synthetic image set memorize its training set?

For every synthetic image the toolkit finds the training images with the
highest Pearson correlation, compares the resulting distribution against a
held-out baseline, and flags likely memorized outputs. Secondary metrics
(SSIM, mutual information, FID, Inception Score) and a planted-copy
validation harness round out the audit.
"""

from .core import (
    Dataset,
    ImageRecord,
    VolumeRecord,
    default_channel_mask,
    pearson,
)
from .correlate import (
    ComparisonPlan,
    TopKMatches,
    brute_force_correlations,
    max_correlations,
    plan_audit,
)
from .errors import (
    EmptyInputError,
    FormatError,
    InvalidArgumentError,
    ManifestError,
    MemauditError,
    UndefinedCorrelationError,
    UnsupportedVersionError,
)
from .harness import PlantConfig, evaluate_detector, generate_train_set, plant
from .ingest import (
    DatasetFile,
    EmbeddingSet,
    EmbeddingSetFile,
    load_dataset,
    load_embedding_set,
    load_manifest,
    open_dataset,
    open_embedding_set,
    read_embeddings,
    read_ivc,
    read_pgm,
    write_embeddings,
    write_ivc,
    write_pgm,
)
from .metrics import (
    GaussianStats,
    SsimParams,
    fid,
    gaussian_stats,
    inception_score,
    matrix_sqrt_psd,
    mutual_information,
    ssim,
)
from .report import (
    AuditReport,
    DistributionSummary,
    build_audit_report,
    derive_threshold,
    export_report,
    flag_memorized,
    histogram,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "ComparisonPlan",
    "Dataset",
    "DatasetFile",
    "DistributionSummary",
    "EmbeddingSet",
    "EmbeddingSetFile",
    "EmptyInputError",
    "FormatError",
    "GaussianStats",
    "ImageRecord",
    "InvalidArgumentError",
    "ManifestError",
    "MemauditError",
    "PlantConfig",
    "SsimParams",
    "TopKMatches",
    "UndefinedCorrelationError",
    "UnsupportedVersionError",
    "VolumeRecord",
    "brute_force_correlations",
    "build_audit_report",
    "default_channel_mask",
    "derive_threshold",
    "evaluate_detector",
    "export_report",
    "fid",
    "flag_memorized",
    "gaussian_stats",
    "generate_train_set",
    "histogram",
    "inception_score",
    "load_dataset",
    "load_embedding_set",
    "load_manifest",
    "matrix_sqrt_psd",
    "max_correlations",
    "mutual_information",
    "open_dataset",
    "open_embedding_set",
    "pearson",
    "plan_audit",
    "plant",
    "read_embeddings",
    "read_ivc",
    "read_pgm",
    "ssim",
    "summarize",
    "write_embeddings",
    "write_ivc",
    "write_pgm",
]
