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
    if epsilon < 0:
        raise BoundError(f"epsilon must be non-negative, got {epsilon}")
    if t < 1:
        raise BoundError(f"edit count t must be >= 1, got {t}")
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
    scalar :func:`accuracy_upper_bound`); the per-vector and the masked
    searches both funnel through here so they cannot drift apart.
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
    _validate_bound_parameters(epsilon, t)
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

    The threshold/k split table is epsilon-independent, so evaluating many
    privacy levels costs one sort plus one vectorized curve per epsilon.
    Each value is identical to ``tightest_accuracy_bound(vector, eps, t)
    .accuracy_bound`` — both run the same table and curve kernels. This is
    the convenient single-vector API; the batched engine uses
    :func:`tightest_accuracy_bounds_masked`, which builds the tables of a
    whole chunk of targets at once.
    """
    table = _split_table(vector, None)
    if table is None:
        return {float(eps): 1.0 for eps in epsilons}
    taus, ks, cs, n = table
    bounds: dict[float, float] = {}
    for epsilon in epsilons:
        _validate_bound_parameters(epsilon, t)
        curve = corollary1_curve(float(epsilon), n, ks, cs, int(t))
        bounds[float(epsilon)] = float(curve.min())
    return bounds


def tightest_accuracy_bounds_masked(
    scores: np.ndarray,
    mask: np.ndarray,
    kept: np.ndarray,
    counts: np.ndarray,
    u_maxes: np.ndarray,
    ts: np.ndarray,
    epsilons: "tuple[float, ...] | list[float]",
    workspace=None,
) -> np.ndarray:
    """Tightest Corollary 1 bounds straight from masked score rows.

    The engine's form of :func:`tightest_accuracy_bound`: instead of one
    Python ``_split_table`` (a sort, a distinct scan, a ``searchsorted``)
    per target and epsilon, the whole chunk's threshold/k tables are built
    from the dense ``(rows, n)`` score matrix and candidate mask the
    engine already holds, as a handful of array passes:

    * non-candidates are padded to ``+inf`` and every row is sorted by one
      ``np.sort(axis=1)`` — row-local direct sorts, which profile an order
      of magnitude faster than any flat segmented (lexsort) scheme;
    * distinct-value flags plus a ``value < u_max`` eligibility test yield
      each row's thresholds (the padding and each row's ``u_max`` tie group
      are excluded exactly like ``threshold_splits``' ``tau < u_max`` rule);
    * for a threshold at sorted position ``p``, ``k = #\\{u > tau\\}`` is the
      count of candidates past its *next* distinct position — pure index
      arithmetic, identical to the per-row ``searchsorted(..., "right")``
      complement;
    * the curve funnels through :func:`_bounds_from_log_highs` and the
      per-row minimum is one ``minimum.reduceat``.

    ``kept`` selects the rows to evaluate (the engine's footnote-10
    survivors, each guaranteed ``>= 2`` candidates and positive maximum);
    ``counts``/``u_maxes``/``ts`` are parallel to ``kept``. Entry ``[j, e]``
    equals ``tightest_accuracy_bound(vector_j, epsilons[e], ts[j])
    .accuracy_bound`` bit for bit when ``scores`` is float64. Float32 scores
    are supported (the compute-dtype path): thresholds and maxima enter at
    their rounded float32 values, but the search arithmetic always runs in
    float64 — ``e^{epsilon t}`` saturates float32's exponent range three
    orders of magnitude too early for the paper's lenient settings.
    """
    num_rows, num_nodes = scores.shape
    kept = np.asarray(kept, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    epsilon_grid = [float(eps) for eps in epsilons]
    for epsilon in epsilon_grid:
        _validate_bound_parameters(epsilon, 1)
    if kept.size == 0 or not epsilon_grid:
        return np.ones((kept.size, len(epsilon_grid)), dtype=np.float64)
    if counts.size != kept.size:
        raise BoundError(f"got {kept.size} rows but {counts.size} counts")
    if int(counts.min()) < 2:
        raise BoundError("the bound needs at least two candidates")
    u_maxes = np.asarray(u_maxes)
    if float(u_maxes.min()) <= 0.0:
        raise BoundError("the bound is undefined when all utilities are zero")
    ts = np.asarray(ts, dtype=np.int64)
    if ts.size != kept.size:
        raise BoundError(f"got {kept.size} rows but {ts.size} edit counts")
    if int(ts.min()) < 1:
        raise BoundError(f"edit count t must be >= 1, got {int(ts.min())}")

    shape = scores.shape
    dtype = scores.dtype
    if workspace is not None:
        padded = workspace.take("bounds.padded", shape, dtype)
        flags = workspace.take("bounds.flags", shape, np.bool_)
        second = workspace.take("bounds.flags2", shape, np.bool_)
    else:
        padded = np.empty(shape, dtype=dtype)
        flags = np.empty(shape, dtype=np.bool_)
        second = np.empty(shape, dtype=np.bool_)
    padded.fill(np.inf)
    np.copyto(padded, scores, where=mask)
    padded.sort(axis=1)

    # Rows outside `kept` get a -inf ceiling: nothing in them is eligible,
    # so dropped targets (and their padding) contribute no thresholds.
    ceilings = np.full(num_rows, -np.inf, dtype=np.float64)
    ceilings[kept] = u_maxes.astype(np.float64, copy=False)
    # Distinct flags over the sorted rows. Spurious flags at the padding
    # boundary (first +inf after the candidates) are harmless: they sit
    # *after* every row's u_max group, so no eligible threshold ever reads
    # them as its "next distinct", and eligibility excludes them outright.
    flags[:, 0] = True
    np.not_equal(padded[:, 1:], padded[:, :-1], out=flags[:, 1:])
    np.less(padded, ceilings[:, None], out=second)
    distinct_idx = np.flatnonzero(flags.reshape(-1))
    eligible = second.reshape(-1)[distinct_idx]
    next_distinct = np.empty(distinct_idx.size, dtype=np.int64)
    next_distinct[:-1] = distinct_idx[1:]
    next_distinct[-1] = num_rows * num_nodes
    tau_pos = distinct_idx[eligible]
    tau_next = next_distinct[eligible]
    rows_of_tau = tau_pos // num_nodes

    counts_full = np.zeros(num_rows, dtype=np.int64)
    counts_full[kept] = counts
    ts_full = np.zeros(num_rows, dtype=np.float64)
    ts_full[kept] = ts.astype(np.float64)
    # k = candidates - position-after-last-occurrence == the per-row
    # searchsorted(sorted_values, tau, side="right") complement.
    ks = counts_full[rows_of_tau] - (tau_next - rows_of_tau * num_nodes)
    taus = padded.reshape(-1)[tau_pos].astype(np.float64, copy=False)
    cs = 1.0 - taus / ceilings[rows_of_tau]
    ks_f = ks.astype(np.float64)
    lows = counts_full[rows_of_tau].astype(np.float64) - ks_f
    log_ks = np.log(ks_f + 1.0)
    ts_rep = ts_full[rows_of_tau]

    results_full = np.ones((num_rows, len(epsilon_grid)), dtype=np.float64)
    thresholds_per_row = np.bincount(rows_of_tau, minlength=num_rows)
    rows_with = thresholds_per_row > 0
    if rows_with.any():
        starts = np.zeros(num_rows, dtype=np.int64)
        np.cumsum(thresholds_per_row[:-1], out=starts[1:])
        starts_with = starts[rows_with]
        for column, epsilon in enumerate(epsilon_grid):
            bounds = _bounds_from_log_highs(epsilon * ts_rep + log_ks, cs, lows)
            results_full[rows_with, column] = np.minimum.reduceat(bounds, starts_with)
    return results_full[kept]


def _validate_bound_parameters(epsilon: float, t: int) -> None:
    if epsilon < 0:
        raise BoundError(f"epsilon must be non-negative, got {epsilon}")
    if t < 1:
        raise BoundError(f"edit count t must be >= 1, got {t}")


def _split_table(
    vector: UtilityVector, thresholds: "np.ndarray | None"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, int] | None":
    """Validated ``(thresholds, ks, cs, n)`` arrays for the tightest search.

    Returns ``None`` when no threshold below ``u_max`` exists (all candidates
    tie at the maximum). Caller-supplied thresholds are filtered to the valid
    ``1 <= k < n`` / ``0 < c <= 1`` region, mirroring the skip conditions of
    the historical scan loop.
    """
    if len(vector) < 2:
        raise BoundError("the bound needs at least two candidates")
    values = vector.values
    u_max = vector.u_max
    if u_max <= 0:
        raise BoundError("the bound is undefined when all utilities are zero")
    n = len(vector)
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
