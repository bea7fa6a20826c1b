"""Serialisation of representations and datasets.

Representations are tiny by construction (that is the point of
dimensionality reduction), so they serialise to JSON: portable, diffable,
and independent of numpy's pickle format.  Raw datasets are dense arrays and
go to ``.npz``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, List, Union

import numpy as np

from ..core.segment import LinearSegmentation, Segment
from ..data.archive import Dataset
from ..reduction.cheby import ChebyshevRepresentation
from ..reduction.sax import SAXRepresentation

__all__ = [
    "to_jsonable",
    "from_jsonable",
    "save_representations",
    "load_representations",
    "save_dataset",
    "load_dataset",
]

PathLike = Union[str, pathlib.Path]


def to_jsonable(representation: Any) -> dict:
    """Convert any supported representation into a JSON-serialisable dict."""
    if isinstance(representation, LinearSegmentation):
        return {
            "type": "segmentation",
            "segments": [
                {"start": int(seg.start), "end": int(seg.end), "a": seg.a, "b": seg.b}
                for seg in representation
            ],
        }
    if isinstance(representation, ChebyshevRepresentation):
        return {
            "type": "chebyshev",
            "coefficients": representation.coefficients.tolist(),
            "n": representation.n,
            "residual_norm": representation.residual_norm,
        }
    if isinstance(representation, SAXRepresentation):
        return {
            "type": "sax",
            "symbols": representation.symbols.tolist(),
            "bounds": [list(b) for b in representation.bounds],
            "alphabet_size": representation.alphabet_size,
            "n": representation.n,
        }
    raise TypeError(f"cannot serialise {type(representation).__name__}")


def from_jsonable(payload: dict) -> Any:
    """Inverse of :func:`to_jsonable`."""
    kind = payload.get("type")
    if kind == "segmentation":
        return LinearSegmentation(
            [
                Segment(start=s["start"], end=s["end"], a=s["a"], b=s["b"])
                for s in payload["segments"]
            ]
        )
    if kind == "chebyshev":
        return ChebyshevRepresentation(
            coefficients=np.asarray(payload["coefficients"], dtype=float),
            n=int(payload["n"]),
            residual_norm=float(payload["residual_norm"]),
        )
    if kind == "sax":
        return SAXRepresentation(
            symbols=np.asarray(payload["symbols"], dtype=int),
            bounds=tuple(tuple(b) for b in payload["bounds"]),
            alphabet_size=int(payload["alphabet_size"]),
            n=int(payload["n"]),
        )
    raise ValueError(f"unknown representation type: {kind!r}")


def save_representations(path: PathLike, representations: "List[Any]") -> None:
    """Write a list of representations to a JSON file."""
    payload = {"representations": [to_jsonable(rep) for rep in representations]}
    pathlib.Path(path).write_text(json.dumps(payload))


def load_representations(path: PathLike) -> "List[Any]":
    """Read back a list written by :func:`save_representations`."""
    payload = json.loads(pathlib.Path(path).read_text())
    return [from_jsonable(item) for item in payload["representations"]]


def save_dataset(path: PathLike, dataset: Dataset) -> None:
    """Write a :class:`repro.data.Dataset` to a compressed ``.npz``."""
    np.savez_compressed(
        path,
        data=dataset.data,
        queries=dataset.queries,
        name=np.array(dataset.name),
        family=np.array(dataset.family),
    )


def load_dataset(path: PathLike) -> Dataset:
    """Read back a dataset written by :func:`save_dataset`."""
    with np.load(path, allow_pickle=False) as archive:
        return Dataset(
            name=str(archive["name"]),
            family=str(archive["family"]),
            data=archive["data"],
            queries=archive["queries"],
        )
