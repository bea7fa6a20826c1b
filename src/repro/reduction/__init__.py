"""Dimensionality reduction methods: SAPLA and the seven paper baselines."""

from .apca import APCA
from .apla import APLA, error_matrix
from .base import Reducer, SegmentReducer, equal_length_bounds, reduce_rows
from .cheby import CHEBY, ChebyshevRepresentation
from .paa import PAA
from .paalm import PAALM, lagrangian_smooth
from .pla import PLA
from .sapla_reducer import SAPLAReducer
from .sax import SAX, SAXRepresentation, gaussian_breakpoints

#: every reducer class keyed by its paper name
REDUCERS = {
    cls.name: cls
    for cls in (SAPLAReducer, APLA, APCA, PLA, PAA, PAALM, CHEBY, SAX)
}

__all__ = [
    "Reducer",
    "SegmentReducer",
    "equal_length_bounds",
    "reduce_rows",
    "SAPLAReducer",
    "APLA",
    "error_matrix",
    "APCA",
    "PLA",
    "PAA",
    "PAALM",
    "lagrangian_smooth",
    "CHEBY",
    "ChebyshevRepresentation",
    "SAX",
    "SAXRepresentation",
    "gaussian_breakpoints",
    "REDUCERS",
]
