"""SAX — Symbolic Aggregate approXimation (Lin, Keogh et al. 2003/2007).

PAA followed by symbolisation against equiprobable Gaussian breakpoints.
SAX's MINDIST lower-bounds the Euclidean distance between the original
(z-normalised) series; its numeric reconstruction is lossier than PAA's
(symbol -> number), which is why the paper excludes it from the max-deviation
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Reducer, equal_length_bounds

__all__ = ["SAX", "SAXRepresentation", "gaussian_breakpoints"]


def gaussian_breakpoints(alphabet_size: int) -> np.ndarray:
    """The ``alphabet_size - 1`` breakpoints splitting N(0,1) into equal-mass cells."""
    if alphabet_size < 2:
        raise ValueError("the SAX alphabet needs at least two symbols")
    from scipy.stats import norm  # at the call site: SciPy is ~1 s / 65 MB to import

    quantiles = np.arange(1, alphabet_size) / alphabet_size
    return norm.ppf(quantiles)


@dataclass(frozen=True)
class SAXRepresentation:
    """Symbol string plus the segment layout needed for MINDIST/reconstruction."""

    symbols: np.ndarray  # integer symbol per segment
    bounds: tuple  # ((start, end), ...) inclusive windows
    alphabet_size: int
    n: int


class SAX(Reducer):
    """Symbolic aggregate approximation with a Gaussian-breakpoint alphabet."""

    name = "SAX"
    coefficients_per_segment = 1

    def __init__(self, n_coefficients: int, alphabet_size: int = 8):
        super().__init__(n_coefficients)
        self.alphabet_size = int(alphabet_size)
        self.breakpoints = gaussian_breakpoints(self.alphabet_size)

    def transform(self, series: np.ndarray) -> SAXRepresentation:
        series = self._validated(series)
        bounds = tuple(equal_length_bounds(len(series), self.n_segments))
        means = np.array([series[s : e + 1].mean() for s, e in bounds])
        symbols = np.searchsorted(self.breakpoints, means)
        return SAXRepresentation(
            symbols=symbols, bounds=bounds, alphabet_size=self.alphabet_size, n=len(series)
        )

    def reconstruct(self, representation: SAXRepresentation) -> np.ndarray:
        """Numeric reconstruction: each symbol maps to its cell's Gaussian median."""
        centers = self._cell_centers()
        out = np.empty(representation.n)
        for symbol, (start, end) in zip(representation.symbols, representation.bounds):
            out[start : end + 1] = centers[symbol]
        return out

    def mindist(self, rep_a: SAXRepresentation, rep_b: SAXRepresentation) -> float:
        """The SAX MINDIST lower bound between two symbolised series."""
        if rep_a.bounds != rep_b.bounds:
            raise ValueError("MINDIST requires identical segment layouts")
        total = 0.0
        for sym_a, sym_b, (start, end) in zip(rep_a.symbols, rep_b.symbols, rep_a.bounds):
            gap = self._symbol_gap(int(sym_a), int(sym_b))
            total += (end - start + 1) * gap * gap
        return float(np.sqrt(total))

    # ------------------------------------------------------------------
    def _symbol_gap(self, sym_a: int, sym_b: int) -> float:
        """dist() cell gap of the SAX lookup table (0 for adjacent symbols)."""
        if abs(sym_a - sym_b) <= 1:
            return 0.0
        hi, lo = max(sym_a, sym_b), min(sym_a, sym_b)
        return float(self.breakpoints[hi - 1] - self.breakpoints[lo])

    def _cell_centers(self) -> np.ndarray:
        """Median of each Gaussian cell, for numeric reconstruction."""
        from scipy.stats import norm

        qs = (np.arange(self.alphabet_size) + 0.5) / self.alphabet_size
        return norm.ppf(qs)
