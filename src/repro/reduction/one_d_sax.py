"""1d-SAX — symbolic representation of segment means *and* slopes.

A natural relative of SAPLA from the symbolic side (Malinowski et al. 2013):
each equal-length segment is least-squares line-fitted, then the mean value
and the slope are quantised against their own Gaussian alphabets.  The
combined symbol keeps the trend information plain SAX throws away, at the
same storage cost per segment pair of bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.linefit import SeriesStats
from ..core.segment import LinearSegmentation, Segment
from .base import Reducer, equal_length_bounds
from .sax import gaussian_breakpoints

__all__ = ["OneDSAX", "OneDSAXRepresentation"]


@dataclass(frozen=True)
class OneDSAXRepresentation:
    """Mean symbols + slope symbols per segment, plus the layout."""

    mean_symbols: np.ndarray
    slope_symbols: np.ndarray
    bounds: tuple
    n: int


class OneDSAX(Reducer):
    """Symbolic mean+slope representation over equal-length segments.

    Args:
        n_coefficients: segment count ``N`` (one mean+slope symbol pair per
            segment).
        mean_alphabet: cells of the mean alphabet.
        slope_alphabet: cells of the slope alphabet.
        slope_scale: the slope quantiser's Gaussian is scaled by
            ``slope_scale / mean_segment_length`` — slopes of z-normalised
            series shrink with segment length (the 1d-SAX recipe).
    """

    name = "1dSAX"
    coefficients_per_segment = 1

    def __init__(
        self,
        n_coefficients: int,
        mean_alphabet: int = 8,
        slope_alphabet: int = 4,
        slope_scale: float = 3.0,
    ):
        super().__init__(n_coefficients)
        if mean_alphabet < 2 or slope_alphabet < 2:
            raise ValueError("alphabets need at least two symbols")
        self.mean_alphabet = int(mean_alphabet)
        self.slope_alphabet = int(slope_alphabet)
        self.slope_scale = float(slope_scale)
        self._mean_breakpoints = gaussian_breakpoints(self.mean_alphabet)

    # ------------------------------------------------------------------
    def _slope_breakpoints(self, segment_length: float) -> np.ndarray:
        from scipy.stats import norm  # at the call site, as in sax.py

        sigma = self.slope_scale / max(segment_length, 1.0)
        quantiles = np.arange(1, self.slope_alphabet) / self.slope_alphabet
        return norm.ppf(quantiles, scale=sigma)

    def transform(self, series: np.ndarray) -> OneDSAXRepresentation:
        series = self._validated(series)
        stats = SeriesStats(series)
        bounds = tuple(equal_length_bounds(len(series), self.n_segments))
        mean_symbols = np.empty(len(bounds), dtype=int)
        slope_symbols = np.empty(len(bounds), dtype=int)
        mean_length = np.mean([e - s + 1 for s, e in bounds])
        slope_breakpoints = self._slope_breakpoints(mean_length)
        for i, (s, e) in enumerate(bounds):
            fit = stats.window_fit(s, e)
            a, b = fit.coefficients
            mean = b + a * (fit.length - 1) / 2.0
            mean_symbols[i] = int(np.searchsorted(self._mean_breakpoints, mean))
            slope_symbols[i] = int(np.searchsorted(slope_breakpoints, a))
        return OneDSAXRepresentation(
            mean_symbols=mean_symbols,
            slope_symbols=slope_symbols,
            bounds=bounds,
            n=len(series),
        )

    def reconstruct(self, representation: OneDSAXRepresentation) -> np.ndarray:
        """Numeric reconstruction: per segment, the cell-median line."""
        mean_centers = self._cell_centers(self.mean_alphabet, 1.0)
        mean_length = np.mean([e - s + 1 for s, e in representation.bounds])
        slope_centers = self._cell_centers(
            self.slope_alphabet, self.slope_scale / max(mean_length, 1.0)
        )
        segments = []
        for (s, e), mean_sym, slope_sym in zip(
            representation.bounds,
            representation.mean_symbols,
            representation.slope_symbols,
        ):
            length = e - s + 1
            a = float(slope_centers[slope_sym])
            mean = float(mean_centers[mean_sym])
            b = mean - a * (length - 1) / 2.0
            segments.append(Segment(start=s, end=e, a=a, b=b))
        return LinearSegmentation(segments).reconstruct()

    def mindist(self, rep_a: OneDSAXRepresentation, rep_b: OneDSAXRepresentation) -> float:
        """Mean-alphabet MINDIST (the SAX bound; slope symbols only refine)."""
        if rep_a.bounds != rep_b.bounds:
            raise ValueError("MINDIST requires identical segment layouts")
        total = 0.0
        for sym_a, sym_b, (s, e) in zip(
            rep_a.mean_symbols, rep_b.mean_symbols, rep_a.bounds
        ):
            if abs(int(sym_a) - int(sym_b)) <= 1:
                continue
            hi, lo = max(sym_a, sym_b), min(sym_a, sym_b)
            gap = float(self._mean_breakpoints[hi - 1] - self._mean_breakpoints[lo])
            total += (e - s + 1) * gap * gap
        return float(np.sqrt(total))

    @staticmethod
    def _cell_centers(alphabet: int, sigma: float) -> np.ndarray:
        from scipy.stats import norm

        qs = (np.arange(alphabet) + 0.5) / alphabet
        return norm.ppf(qs, scale=sigma)
