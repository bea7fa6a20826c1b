"""Loader for real UCR archive files.

This build ships a synthetic archive (the real one is not redistributable),
but adopters who *have* the UCR2018 download can point the library at it:
UCR distributes each dataset as ``<Name>_TRAIN.tsv`` / ``<Name>_TEST.tsv``
with one series per line, the class label first, values tab-separated.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Union

import numpy as np

from .normalize import resample_to_length, z_normalize

__all__ = ["LabeledDataset", "load_ucr_tsv", "load_ucr_dataset"]

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class LabeledDataset:
    """A train/test split with integer class labels."""

    name: str
    family: str
    data: np.ndarray
    labels: np.ndarray
    queries: np.ndarray
    query_labels: np.ndarray

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def length(self) -> int:
        return int(self.data.shape[1])


def load_ucr_tsv(path: PathLike) -> "tuple[np.ndarray, np.ndarray]":
    """Parse one UCR ``.tsv`` file into ``(labels, series_matrix)``.

    Labels are re-coded to contiguous integers starting at zero, in sorted
    order of the original label values.
    """
    path = pathlib.Path(path)
    raw = np.loadtxt(path, delimiter="\t", ndmin=2)
    if raw.shape[1] < 2:
        raise ValueError(f"{path} does not look like a UCR tsv (label + values)")
    original = raw[:, 0]
    classes = {value: code for code, value in enumerate(sorted(set(original.tolist())))}
    labels = np.array([classes[value] for value in original.tolist()], dtype=int)
    return labels, raw[:, 1:]


def load_ucr_dataset(
    directory: PathLike,
    name: str,
    length: "int | None" = None,
    normalize: bool = True,
) -> LabeledDataset:
    """Load ``<directory>/<name>/<name>_TRAIN.tsv`` (+ ``_TEST.tsv``).

    Args:
        directory: root of the extracted UCR archive.
        name: dataset name (its folder and file prefix).
        length: optional resampling length (the paper uses 1024).
        normalize: z-normalise every series (the UCR convention).
    """
    directory = pathlib.Path(directory)
    train_path = directory / name / f"{name}_TRAIN.tsv"
    test_path = directory / name / f"{name}_TEST.tsv"
    if not train_path.exists():
        raise FileNotFoundError(f"no UCR train file at {train_path}")
    train_labels, train = load_ucr_tsv(train_path)
    if test_path.exists():
        test_labels, test = load_ucr_tsv(test_path)
    else:
        test_labels, test = np.array([], dtype=int), np.empty((0, train.shape[1]))

    def condition(matrix: np.ndarray) -> np.ndarray:
        rows = []
        for row in matrix:
            row = row[np.isfinite(row)]  # UCR marks missing values as NaN
            if length is not None:
                row = resample_to_length(row, length)
            rows.append(z_normalize(row) if normalize else row)
        if not rows:
            return matrix
        if len({row.shape[0] for row in rows}) > 1:
            raise ValueError(
                f"{name} has variable-length series; pass `length=` to resample"
            )
        return np.stack(rows)

    return LabeledDataset(
        name=name,
        family="ucr",
        data=condition(train),
        labels=train_labels,
        queries=condition(test),
        query_labels=test_labels,
    )
