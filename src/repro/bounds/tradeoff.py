"""The central accuracy/privacy trade-off (Lemma 1 and Corollary 1).

Setting (Section 4.2): fix a level ``c in (0, 1)`` and split the ``n``
candidates into ``k`` high-utility nodes (``u_i > (1-c) u_max``) and
``n - k`` low-utility nodes. Let ``t`` be the number of edge alterations
that turn the least-likely low-utility node into the strict utility maximum.
Then every monotone, exchangeable, epsilon-DP recommender satisfies

* Lemma 1:      ``epsilon >= (1/t) * (ln((c - delta)/delta) + ln((n-k)/(k+1)))``
* Corollary 1:  ``1 - delta <= 1 - c (n-k) / (n - k + (k+1) e^{epsilon t})``

Both directions are implemented, plus the *tightest-bound search*: the
corollary holds for every valid ``c``, and each threshold on the utility
values induces a ``(c, k)`` pair, so the binding bound for a concrete
utility vector is the minimum over thresholds. The paper's experimental
"Theoretical Bound" curves evaluate exactly this quantity with the exact
``t`` of Section 7.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BoundError
from ..utility.base import UtilityVector


def _validate_counts(n: int, k: int) -> None:
    if n < 2:
        raise BoundError(f"need at least two candidates, got n={n}")
    if not 1 <= k < n:
        raise BoundError(f"high-utility count k must satisfy 1 <= k < n, got k={k}, n={n}")


def epsilon_lower_bound(c: float, delta: float, n: int, k: int, t: int) -> float:
    """Lemma 1: minimum privacy cost of a ``(1 - delta)``-accurate algorithm.

    Parameters mirror the lemma: ``c`` the utility level defining the high
    group, ``delta`` the accuracy slack (``0 < delta < c``), ``n`` candidate
    count, ``k`` high-utility count, ``t`` promotion edit count.
    """
    _validate_counts(n, k)
    if not 0.0 < c <= 1.0:
        raise BoundError(f"c must be in (0, 1], got {c}")
    if not 0.0 < delta < c:
        raise BoundError(f"delta must satisfy 0 < delta < c, got delta={delta}, c={c}")
    if t < 1:
        raise BoundError(f"edit count t must be >= 1, got {t}")
    return (math.log((c - delta) / delta) + math.log((n - k) / (k + 1))) / t


def accuracy_upper_bound(epsilon: float, n: int, k: int, t: int, c: float = 1.0) -> float:
    """Corollary 1: maximum accuracy of any epsilon-DP recommender.

    ``1 - delta <= 1 - c (n-k) / (n - k + (k+1) e^{epsilon t})``. The bound
    is evaluated in the ``c -> 1`` limit by default (the formula is
    continuous in ``c`` and tightest there for fixed ``k``); the paper's
    Section 4.2 example uses ``c = 0.99``.
    """
    _validate_counts(n, k)
    _validate_bound_parameters(epsilon, t)
    if not 0.0 < c <= 1.0:
        raise BoundError(f"c must be in (0, 1], got {c}")
    low = n - k
    # e^{epsilon t} can overflow float64 for lenient settings; compute in logs.
    log_high = epsilon * t + math.log(k + 1)
    if log_high > 700:  # e^700 ~ 1e304; bound is numerically 1 beyond this
        return 1.0
    high = math.exp(log_high)
    return 1.0 - c * low / (low + high)


@dataclass(frozen=True)
class BoundEvaluation:
    """Result of the tightest-bound search over utility thresholds."""

    accuracy_bound: float
    threshold: float
    c: float
    k: int
    n: int
    t: int
    epsilon: float


#: Exponent beyond which ``e^{epsilon t} (k+1)`` saturates the bound at 1.0
#: (``e^700 ~ 1e304``; the denominator then dwarfs ``n - k`` numerically).
_SATURATION_EXPONENT = 700.0


def threshold_splits(values: np.ndarray, u_max: float) -> "tuple[np.ndarray, np.ndarray]":
    """All distinct utility thresholds below ``u_max`` and their ``k`` counts.

    Each distinct utility value ``tau < u_max`` induces the split
    ``k = #{i : u_i > tau}`` of the Corollary 1 search. One sort plus one
    ``searchsorted`` replaces a per-threshold ``count_nonzero`` scan, and the
    table is epsilon-independent so multi-epsilon evaluations share it.
    """
    sorted_values = np.sort(values)
    distinct = np.ones(sorted_values.size, dtype=bool)
    distinct[1:] = sorted_values[1:] != sorted_values[:-1]
    uniques = sorted_values[distinct]
    thresholds = uniques[uniques < u_max]
    ks = values.size - np.searchsorted(sorted_values, thresholds, side="right")
    return thresholds, ks


def _bounds_from_log_highs(
    log_highs: np.ndarray, cs: np.ndarray, lows: np.ndarray
) -> np.ndarray:
    """Corollary 1 bound from precomputed ``epsilon t + ln(k+1)`` exponents.

    The single home of the vectorized formula *and* its saturation cutoff
    (the bound is exactly 1.0 once the exponent passes 700, matching the
    scalar :func:`accuracy_upper_bound`); the per-vector and the flat
    support searches both funnel through here so they cannot drift apart.
    """
    highs = np.exp(np.minimum(log_highs, _SATURATION_EXPONENT))
    bounds = 1.0 - cs * lows / (lows + highs)
    return np.where(log_highs > _SATURATION_EXPONENT, 1.0, bounds)


def corollary1_curve(
    epsilon: float, n: int, ks: np.ndarray, cs: np.ndarray, t: int
) -> np.ndarray:
    """Vectorized Corollary 1 bound over parallel ``(k, c)`` split arrays.

    Semantics match :func:`accuracy_upper_bound` (including the saturation
    cutoff) evaluated elementwise, computed with array transcendentals.
    """
    ks = np.asarray(ks, dtype=np.float64)
    cs = np.asarray(cs, dtype=np.float64)
    lows = float(n) - ks
    log_highs = epsilon * t + np.log(ks + 1.0)
    return _bounds_from_log_highs(log_highs, cs, lows)


def tightest_accuracy_bound(
    vector: UtilityVector,
    epsilon: float,
    t: int,
    thresholds: "np.ndarray | None" = None,
) -> BoundEvaluation:
    """Tightest Corollary 1 bound for a concrete utility vector.

    For each candidate threshold ``tau in [0, u_max)`` set
    ``k = #{i : u_i > tau}`` and ``c = 1 - tau/u_max``; the corollary bound
    is evaluated at every such pair and the minimum returned. By default the
    thresholds are the distinct utility values below the maximum (the bound
    is piecewise in ``tau``, so nothing between distinct values can be
    tighter).
    """
    table = _split_table(vector, thresholds)
    _validate_bound_parameters(epsilon, t)
    if table is None:
        # Every candidate already has maximum utility: any recommendation is
        # optimal, so the trade-off imposes no constraint at all.
        return BoundEvaluation(
            accuracy_bound=1.0,
            threshold=0.0,
            c=1.0,
            k=len(vector) - 1,
            n=len(vector),
            t=int(t),
            epsilon=float(epsilon),
        )
    taus, ks, cs, n = table
    curve = corollary1_curve(float(epsilon), n, ks, cs, int(t))
    best = int(np.argmin(curve))  # first index on ties, like the old scan
    return BoundEvaluation(
        accuracy_bound=float(curve[best]),
        threshold=float(taus[best]),
        c=float(cs[best]),
        k=int(ks[best]),
        n=n,
        t=int(t),
        epsilon=float(epsilon),
    )


def tightest_accuracy_bounds(
    vector: UtilityVector,
    epsilons: "tuple[float, ...] | list[float]",
    t: int,
) -> dict[float, float]:
    """Tightest Corollary 1 bound at several epsilons, sharing one split table.

    The one-row case of :func:`support_bounds`, on the vector's positive
    support and zero-bucket size: each value is identical to
    ``tightest_accuracy_bound(vector, eps, t).accuracy_bound``.
    """
    _, values = vector.support()
    matrix = support_bounds(
        values, [0, values.size], [vector.zero_count], [t], epsilons
    )
    return {float(eps): float(matrix[0, column]) for column, eps in enumerate(epsilons)}


def support_bounds(
    values: np.ndarray,
    offsets: "np.ndarray | list[int]",
    zeros: "np.ndarray | list[int]",
    ts: "np.ndarray | list[int]",
    epsilons: "tuple[float, ...] | list[float]",
) -> np.ndarray:
    """Tightest Corollary 1 bounds of many rows from their positive supports.

    Row ``j``'s positive utilities are ``values[offsets[j]:offsets[j +
    1]]`` (rows concatenated), ``zeros[j]`` more candidates score zero
    and ``ts[j]`` is its edit count. Entry ``[j, e]`` equals
    ``tightest_accuracy_bound(vector_j, epsilons[e], ts[j])
    .accuracy_bound`` bit for bit: the thresholds are the row's distinct
    support values below its maximum, each with ``k = #{u > tau}``
    counted inside the support, plus — when the row has zeros — the
    zero bucket's one threshold ``tau = 0`` with ``k = |support|``.
    Candidates at zero never exceed a threshold, so nothing else of the
    bucket enters the search.

    Flat passes over all rows: one zero per bucket row is inserted to
    stand for the bucket, one direct sort of (row, value-rank) integer
    keys orders every row, index arithmetic on the distinct positions
    yields each threshold's ``k``, one ``(thresholds x epsilons)`` curve
    funnels through :func:`_bounds_from_log_highs`, and the per-row
    minimum is one ``minimum.reduceat``. A row with no threshold (every
    candidate at the maximum) is unconstrained: 1.0.
    """
    epsilon_grid = [float(eps) for eps in epsilons]
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    zeros = np.asarray(zeros, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.int64)
    num_rows = offsets.size - 1
    if zeros.shape != (num_rows,) or ts.shape != (num_rows,):
        raise BoundError(
            f"got {num_rows} rows but {zeros.size} zero counts and {ts.size} edit counts"
        )
    for epsilon in epsilon_grid:
        _validate_bound_parameters(epsilon, 1)
    results = np.ones((num_rows, len(epsilon_grid)), dtype=np.float64)
    if num_rows == 0:
        return results
    counts = np.diff(offsets)
    if int((counts + zeros).min()) < 2:
        raise BoundError("the bound needs at least two candidates")
    if int(counts.min()) < 1:
        raise BoundError("the bound is undefined when all utilities are zero")
    if int(ts.min()) < 1:
        raise BoundError(f"edit count t must be >= 1, got {int(ts.min())}")
    if not epsilon_grid:
        return results

    candidates = (counts + zeros).astype(np.float64)
    bucket = zeros > 0
    values = np.insert(values, offsets[:-1][bucket], 0.0)
    counts = counts + bucket
    ends = np.cumsum(counts)
    # Sort every row by value at once: one integer key per entry, its row
    # times the number of distinct values plus its value's rank among
    # them, so a direct sort of the keys orders rows, then values within.
    uniques = np.unique(values)
    width = uniques.size
    keys = np.repeat(np.arange(num_rows) * width, counts) + np.searchsorted(uniques, values)
    keys.sort()
    distinct = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    positions = np.flatnonzero(distinct)
    # k = #{u > tau}: the row's entries from the next distinct position
    # on (a key never repeats across rows, so the last distinct value of
    # a row meets the row's end).
    next_distinct = np.append(positions[1:], keys.size)
    rows = keys[positions] // width
    ks = ends[rows] - next_distinct
    eligible = ks > 0  # tau < u_max
    positions, rows, ks = positions[eligible], rows[eligible], ks[eligible]
    if rows.size == 0:
        return results
    taus = uniques[keys[positions] % width]
    u_maxes = uniques[keys[ends - 1] % width]
    cs = 1.0 - taus / u_maxes[rows]
    ks_f = ks.astype(np.float64)
    lows = candidates[rows] - ks_f
    log_ks = np.log(ks_f + 1.0)
    ts_rep = ts.astype(np.float64)[rows]
    # One (thresholds x epsilons) curve; each element is the same
    # arithmetic as the per-vector curve, so broadcasting changes no bit.
    log_highs = ts_rep[:, None] * np.asarray(epsilon_grid) + log_ks[:, None]
    bounds = _bounds_from_log_highs(log_highs, cs[:, None], lows[:, None])
    per_row = np.bincount(rows, minlength=num_rows)
    with_thresholds = per_row > 0
    starts = (np.cumsum(per_row) - per_row)[with_thresholds]
    results[with_thresholds] = np.minimum.reduceat(bounds, starts, axis=0)
    return results


def _validate_bound_parameters(epsilon: float, t: int) -> None:
    # ``not >=`` rejects NaN too; epsilon = inf is legal (the bound is 1.0).
    if not epsilon >= 0:
        raise BoundError(f"epsilon must be non-negative, got {epsilon}")
    if t < 1:
        raise BoundError(f"edit count t must be >= 1, got {t}")


def _split_table(
    vector: UtilityVector, thresholds: "np.ndarray | None"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, int] | None":
    """Validated ``(thresholds, ks, cs, n)`` arrays for the tightest search.

    Built from the vector's positive support plus its zero bucket, like
    :func:`support_bounds`: one zero stands for the whole bucket, which
    adds the threshold ``tau = 0`` with ``k = |support|`` and is never
    above a threshold ``tau >= 0``. (A negative threshold has ``c > 1``
    and is filtered out whatever its ``k``.) Returns ``None`` when no
    threshold below ``u_max`` exists (all candidates tie at the maximum).
    Caller-supplied thresholds are filtered to the valid ``1 <= k < n`` /
    ``0 < c <= 1`` region, mirroring the skip conditions of the
    historical scan loop.
    """
    if len(vector) < 2:
        raise BoundError("the bound needs at least two candidates")
    u_max = vector.u_max
    if u_max <= 0:
        raise BoundError("the bound is undefined when all utilities are zero")
    n = len(vector)
    _, values = vector.support()
    values = values.astype(np.float64)
    if vector.zero_count:
        values = np.append(values, 0.0)
    if thresholds is None:
        taus, ks = threshold_splits(values, u_max)
        if taus.size == 0:
            return None
        cs = 1.0 - taus / u_max
        return taus, ks, cs, n
    taus = np.asarray(thresholds, dtype=np.float64)
    if taus.size == 0:
        return None
    sorted_values = np.sort(values)
    ks = values.size - np.searchsorted(sorted_values, taus, side="right")
    cs = 1.0 - taus / u_max
    valid = (ks >= 1) & (ks < n) & (cs > 0.0) & (cs <= 1.0)
    if not valid.any():
        raise BoundError("no valid (c, k) split found for the utility vector")
    return taus[valid], ks[valid], cs[valid], n


def section_4_2_worked_example() -> dict[str, float]:
    """The paper's Facebook-scale example: n=4e8, c=0.99, k=100, t=150, eps=0.1.

    The paper computes ``1 - delta <= 1 - 3.96e8 / (4e8 + 3.33e8) ~ 0.46``:
    a 0.1-DP recommender on a 400M-node network can guarantee at most ~46%
    of the optimal recommendation utility.
    """
    n = 4 * 10**8
    c = 0.99
    k = 100
    t = 150
    epsilon = 0.1
    bound = accuracy_upper_bound(epsilon, n, k, t, c=c)
    return {
        "n": float(n),
        "c": c,
        "k": float(k),
        "t": float(t),
        "epsilon": epsilon,
        "accuracy_bound": bound,
    }
