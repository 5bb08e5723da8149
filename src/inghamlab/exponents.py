"""Exponent families on a finite index window.

Construction and measurement of real exponent sequences: decomposition
into close-exponent chains under the M-step (weakened) gap condition, the
sliding-window counting function, upper-density estimation by slope
fitting, and periodic sharpness partitions into direction classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "ExponentFamily",
    "detect_chains",
    "counting_function",
    "estimate_density",
    "build_sharpness_partition",
    "generate_family",
]


@dataclass
class ExponentFamily:
    """A finite, sorted window of real exponents; a function is named by its array position."""

    exponents: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.exponents, dtype=float))
        if x.ndim != 1 or x.size == 0:
            raise ValueError("exponent window must be a nonempty 1-D sequence")
        if not np.isfinite(x).all():  # NaN would pass the order test below
            raise ValueError("exponents must be finite")
        if not math.isfinite(float(x.max()) - float(x.min())):  # so is every gap and divided-difference divisor
            raise ValueError("exponent span must be finite")
        if np.any(np.diff(x) < 0):
            raise ValueError("exponents must be nondecreasing")
        x = x.copy()
        x.setflags(write=False)
        self.exponents = x

    def __len__(self) -> int:
        return self.exponents.size

    @property
    def span(self) -> float:
        return float(self.exponents[-1] - self.exponents[0])

    def slice_positions(self, lo: int, hi: int) -> "ExponentFamily":
        """Subfamily over array positions lo..hi (inclusive)."""
        if not (0 <= lo <= hi < len(self)):
            raise IndexError("slice outside window")
        return ExponentFamily(self.exponents[lo : hi + 1])

    def subfamily(self, positions) -> "ExponentFamily":
        """Subfamily over the given array positions, taken in increasing order."""
        pos = np.sort(np.asarray(positions, dtype=int))
        if pos.size == 0:
            raise ValueError("empty subfamily")
        if pos[0] < 0 or pos[-1] >= len(self):
            raise IndexError("subfamily position outside window")
        return ExponentFamily(self.exponents[pos])


def detect_chains(family: ExponentFamily, gamma_prime: float, M: int) -> list[tuple[int, int]]:
    """Unique maximal decomposition into chains with consecutive gaps < gamma_prime.

    Splits exactly at consecutive differences >= gamma_prime and returns the
    (first, last) positions of each chain, inclusive, in order.  The missing
    neighbor condition at the two window edges is treated as satisfied.
    """
    if gamma_prime <= 0:
        raise ValueError("gamma_prime must be positive")
    if M < 1:
        raise ValueError("M must be a positive integer")
    x = family.exponents
    breaks = np.flatnonzero(np.diff(x) >= gamma_prime)  # break after position b
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [x.size - 1]))
    too_long = np.flatnonzero(stops - starts + 1 > M)
    if too_long.size:
        s, e = starts[too_long[0]], stops[too_long[0]]
        raise ValueError(f"weak gap violated: chain of length {e - s + 1} > M={M} at indices {s}..{e}")
    return list(zip(starts.tolist(), stops.tolist()))


def counting_function(family: ExponentFamily, r: float) -> int:
    """Largest number of exponents in any closed window of length r.

    The supremum over window positions is attained with the left endpoint at
    an exponent, so the computation is exact over the finite window.
    """
    if r <= 0:
        raise ValueError("window length r must be positive")
    x = family.exponents
    counts = np.searchsorted(x, x + r, side="right") - np.arange(x.size)
    return int(counts.max())


def estimate_density(family: ExponentFamily, r_grid) -> tuple[list[dict], dict]:
    """Upper-density estimate: least-squares slope of the counting function.

    Fits count(r) ~ slope*r + b over the upper half of the radius grid; the
    intercept absorbs the O(1) boundary bias of the finite window.  Returns
    (rows, summary): one row {r, count} per radius, and the slope
    ``dplus_estimate``, ``intercept``, the fit's RMS ``residual``, the
    half-open ``fit_window`` of grid positions it used and ``family_size``.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("r_grid must be a nonempty 1-D sequence")
    if np.any(np.diff(r) <= 0):
        raise ValueError("r_grid must be strictly increasing")
    if r[0] <= 0:
        raise ValueError("r_grid values must be positive")
    if family.span > 0 and r[-1] > family.span:
        raise ValueError("r_grid values must not exceed the family's window span")
    counts = np.array([counting_function(family, ri) for ri in r])
    lo = r.size // 2
    if r.size - lo < 3:
        raise ValueError("fewer than 3 grid points in fit window")
    slope, intercept = np.polyfit(r[lo:], counts[lo:], 1)
    resid = counts[lo:] - (slope * r[lo:] + intercept)
    summary = {
        "dplus_estimate": float(slope),
        "intercept": float(intercept),
        "residual": float(np.sqrt(np.mean(resid**2))),
        "fit_window": [lo, r.size],
        "family_size": len(family),
    }
    return [{"r": float(ri), "count": int(c)} for ri, c in zip(r, counts)], summary


def _difference_pattern_period(diffs: np.ndarray) -> int | None:
    """Smallest p with diffs[i + p] == diffs[i] for all i, needing >= 2 repeats."""
    m = diffs.size
    scale = max(1.0, float(np.max(np.abs(diffs))))
    for p in range(1, m // 2 + 1):
        if np.all(np.abs(diffs[p:] - diffs[:-p]) <= 1e-9 * scale):
            return p
    return None


def build_sharpness_partition(
    family: ExponentFamily, d: int, alpha: float, period_count: int | None = None
) -> tuple[np.ndarray, int]:
    """Periodic block partition whose largest class density equals alpha.

    Per period of ``m`` exponents, a run of round(alpha/D * m) consecutive
    exponents goes to class 1 and the remainder is distributed round-robin
    over classes 2..d (restarting each period, so every class is periodic).
    Only defined for families whose consecutive-difference pattern is
    periodic; D is the family's exact density, period count / period length.
    Returns (class_of, m): the class (1..d) of each family position, and m.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    x = family.exponents
    if x.size < 4:
        raise ValueError("construction requires periodic family (window too short)")
    diffs = np.diff(x)
    p = _difference_pattern_period(diffs)
    if p is None:
        raise ValueError("construction requires periodic family")
    period_length = float(np.sum(diffs[:p]))
    if period_length <= 0:
        raise ValueError("construction requires periodic family with positive period")
    dplus = p / period_length
    tol = 1e-9 * max(1.0, dplus)
    if not (dplus / d - tol <= alpha <= dplus + tol):
        raise ValueError(
            f"alpha={alpha} outside [D+/d, D+] = [{dplus / d:.6g}, {dplus:.6g}]"
        )
    beta = min(max(alpha / dplus, 1.0 / d), 1.0)  # class-1 share of each period
    if period_count is None:
        denom = Fraction(beta).limit_denominator(64).denominator
        m = math.lcm(p, denom)
    else:
        m = int(period_count)
        if m < p or m % p != 0:
            raise ValueError(f"period_count must be a positive multiple of the pattern period {p}")
    run = round(beta * m)
    run = min(max(run, math.ceil(m / d)), m)  # keep classes 2..d no denser than class 1
    offset = np.arange(x.size) % m
    # d == 1 gives run == m, so every position is in class 1 (max() only avoids % 0)
    class_of = np.where(offset < run, 1, 2 + (offset - run) % max(d - 1, 1))
    return class_of, m


def _lattice_values(spacing: float, window) -> np.ndarray:
    lo, hi = float(window[0]), float(window[1])
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if hi < lo:
        raise ValueError("window must satisfy lo <= hi")
    count = int(math.floor((hi - lo) / spacing + 1e-9)) + 1
    return lo + spacing * np.arange(count)


def generate_family(kind: str, **params) -> ExponentFamily:
    """Deterministic family generators: lattice, perturbed-lattice, clustered-pairs, explicit."""
    if kind == "lattice":
        spacing = float(params.pop("spacing", 1.0))
        window = params.pop("window")
        _reject_extra(kind, params)
        vals = _lattice_values(spacing, window)
        return ExponentFamily(vals)
    if kind == "perturbed-lattice":
        spacing = float(params.pop("spacing", 1.0))
        window = params.pop("window")
        maxpert = float(params.pop("max_perturbation"))
        seed = int(params.pop("seed", 0))
        _reject_extra(kind, params)
        if maxpert < 0:
            raise ValueError("max_perturbation must be nonnegative")
        base = _lattice_values(spacing, window)
        rng = np.random.default_rng(seed)
        vals = np.sort(base + rng.uniform(-maxpert, maxpert, size=base.size))
        return ExponentFamily(vals)
    if kind == "clustered-pairs":
        spacing = float(params.pop("spacing", 1.0))
        window = params.pop("window")
        delta = float(params.pop("delta"))
        _reject_extra(kind, params)
        if not 0 < delta < spacing:
            raise ValueError("cluster offset delta must satisfy 0 < delta < spacing")
        base = _lattice_values(spacing, window)
        vals = np.sort(np.concatenate([base, base + delta]))
        return ExponentFamily(vals)
    if kind == "explicit":
        exps = params.pop("exponents")
        params.pop("label", None)  # accepted and echoed with the config, not read
        _reject_extra(kind, params)
        return ExponentFamily(np.sort(np.asarray(exps, dtype=float)))
    raise ValueError(f"unknown family kind {kind!r}")


def _reject_extra(kind: str, params: dict) -> None:
    if params:
        raise ValueError(f"unexpected parameters for kind {kind!r}: {sorted(params)}")
