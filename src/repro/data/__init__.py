"""Synthetic UCR2018-like archive, shape-family generators, and normalisation."""

from .archive import DATASETS, Dataset, UCRLikeArchive
from .generators import FAMILIES, generate
from .normalize import resample_to_length, z_normalize
from .stats import SeriesProfile, profile_dataset, profile_series
from .ucr_loader import LabeledDataset, load_ucr_dataset, load_ucr_tsv
from .workloads import PERTURBATIONS, perturb, query_workload

__all__ = [
    "DATASETS",
    "Dataset",
    "UCRLikeArchive",
    "LabeledDataset",
    "FAMILIES",
    "generate",
    "z_normalize",
    "resample_to_length",
    "PERTURBATIONS",
    "perturb",
    "query_workload",
    "SeriesProfile",
    "profile_series",
    "profile_dataset",
    "load_ucr_tsv",
    "load_ucr_dataset",
]
