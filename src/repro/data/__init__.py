"""Synthetic UCR2018-like archive, shape-family generators, and normalisation."""

from .archive import DATASETS, Dataset, UCRLikeArchive
from .generators import FAMILIES, generate
from .normalize import resample_to_length, z_normalize

__all__ = [
    "DATASETS",
    "Dataset",
    "UCRLikeArchive",
    "FAMILIES",
    "generate",
    "z_normalize",
    "resample_to_length",
]
