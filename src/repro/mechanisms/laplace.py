"""The Laplace mechanism (Definition 6; Dwork et al.).

``A_L(epsilon)`` perturbs every utility with independent Laplace noise of
scale ``b = Delta f / epsilon`` and recommends the candidate with the
highest noisy utility. It is epsilon-differentially private (Theorem 4:
the noisy utilities form a private histogram and the argmax is
post-processing) and "more closely mimics the optimal mechanism R_best"
than the Exponential mechanism does (Section 6).

The paper estimates its accuracy with 1,000 Monte-Carlo trials per target
and gives a closed form only for two candidates (Appendix E, Lemma 3,
:func:`laplace_argmax_probability_two`). Here the probabilities are exact
for any number of candidates. With a row's distinct utilities ``v_k`` and
counts ``c_k`` (the zero bucket is one group), ``G(t) = prod_k F_b(t -
v_k)^{c_k}`` is the CDF of the largest noisy utility and ``P[the pick has
utility v_k] = integral G(t) c_k h_b(t - v_k) dt`` with ``h_b = f_b /
F_b``; ``sum_k P[v_k] = 1`` checks every row. The integral is closed-form
below the smallest value and composite Gauss-Legendre above it, and
running power sums in ``e^{-(t - v_k)/b} / 2`` carry every group into
every panel, so a row costs O((groups + panels) x terms). docs/THEORY.md
derives it.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ..errors import MechanismError
from ..rng import ensure_rng
from ..telemetry import runtime as telemetry_runtime
from ..utility.base import UtilityVector
from .base import PrivateMechanism, register_mechanism

#: Gauss-Legendre nodes and weights of one quadrature panel, on [-1, 1].
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
#: Widest panel, in noise scales.
_PANEL = 0.5
#: Power-series terms: every term has ratio q <= 1/2, and 2^-56 is below
#: float64 resolution.
_ORDERS = np.arange(1, 57, dtype=np.float64)
#: Widest stretch, in noise scales, one blocked running sum spans, so its
#: scaled terms stay below e^{56 * 10} and cannot overflow.
_BLOCK = 10.0
#: Live panels whose node terms one pass holds (~3 MB of float64 in all).
_PASS_PANELS = 1_024
#: A panel whose largest ``log G`` is below this contributes exact zeros.
_UNDERFLOW = -750.0
#: Largest ``|sum_k P[v_k] - 1|`` a row may show before the kernel refuses
#: it; a working row reads ~1e-14.
_NORMALIZATION_TOLERANCE = 1e-9


def laplace_argmax_probability_two(u1: float, u2: float, scale_inverse: float) -> float:
    """Lemma 3 closed form: probability that candidate 1 wins when n = 2.

    ``scale_inverse`` is ``1/b = epsilon / Delta f``; ``u1 >= u2`` is not
    required (the complement rule handles the other order). A tie is a
    measure-zero event, and at ``u1 = u2`` the formula gives exactly 1/2.
    """
    difference = u1 - u2
    if difference < 0:
        return 1.0 - laplace_argmax_probability_two(u2, u1, scale_inverse)
    z = scale_inverse * difference
    return 1.0 - 0.5 * np.exp(-z) - 0.25 * z * np.exp(-z)


def _discounted_cumsum(positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``out[j, m-1] = sum_{i <= j} weights[i, m-1] e^{-m (positions[j] - positions[i])}``.

    ``positions`` ascend; ``weights`` has one column per power or one for
    all. Terms are scaled by ``e^{m (position - block start)}`` within
    blocks of at most ``_BLOCK`` scales, so none overflows, and each
    block's sum is carried, decayed, into the next. No term is negative.
    """
    out = np.empty((positions.size, _ORDERS.size), dtype=np.float64)
    carry = np.zeros(_ORDERS.size, dtype=np.float64)
    last = positions[0]
    start = 0
    while start < positions.size:
        origin = positions[start]
        stop = int(np.searchsorted(positions, origin + _BLOCK, side="right"))
        growth = np.exp(np.multiply.outer(positions[start:stop] - origin, _ORDERS))
        carry *= np.exp(-_ORDERS * (origin - last))
        running = np.cumsum(weights[start:stop] * growth, axis=0)
        running += carry
        out[start:stop] = running / growth
        carry = out[stop - 1].copy()
        last = positions[stop - 1]
        start = stop
    return out


class _Layout(NamedTuple):
    """One row's quadrature panels and the node terms of its live ones."""

    counts: np.ndarray  # candidates per group, float64
    first: np.ndarray  # each group's first panel, then the panel count
    edges: np.ndarray  # each panel's left edge, in noise scales
    live: np.ndarray  # panels where G can exceed the underflow level
    low: float  # the integral of G below the lowest group
    ratio: np.ndarray  # r = e^{-(t - edge)/b} / 2 at every live node
    weight: np.ndarray  # quadrature weight of every live node
    linear: np.ndarray  # log G's terms from the groups above, per live node
    series: np.ndarray  # A_m / m at every live left edge


def _layout(values: np.ndarray, counts: np.ndarray, scale: float) -> _Layout:
    """Panels of one row: ``values`` distinct and ascending, ``counts[k] >=
    1`` candidates share ``values[k]``, and ``scale`` is the noise scale."""
    counts = counts.astype(np.float64)
    total = float(counts.sum())
    # Positions in noise scales below the top value, which sits at 0.
    x = (values - values[-1]) / scale
    gaps = np.diff(x)
    # Candidates above each group, and D = their sum of c_k (x_k - x_group).
    above = np.append(np.cumsum(counts[::-1])[::-1][1:], 0.0)
    spread = np.append(np.cumsum((above[:-1] * gaps)[::-1])[::-1], 0.0)
    # Between groups k and k + 1, log G(t) <= -D - (candidates above)
    # (ln 2 + x_{k+1} - t): only the top `reach` scales of a gap can hold
    # a G above the underflow level. They split into panels at most
    # _PANEL wide and one `head` panel spans the rest. Above the top,
    # _PANEL-wide panels run ln(total) scales, the last one to infinity.
    ceilings = -spread[1:] - above[:-1] * math.log(2.0)
    reach = np.clip((ceilings - _UNDERFLOW) / above[:-1], 0.0, gaps)
    tail = (math.ceil(math.log(total) / _PANEL) + 1) * _PANEL
    reach = np.append(reach, tail)
    gaps = np.append(gaps, tail)
    splits = np.ceil(reach / _PANEL).astype(np.int64)
    head = ((reach < gaps) | (splits == 0)).astype(np.int64)
    widths = reach / np.maximum(splits, 1)
    # Panel p starts at x[owner] + offset and ends at most at the next
    # group: every group is at or below its left edge, or at or above its
    # right edge.
    first = np.concatenate(([0], np.cumsum(splits + head)))
    owner = np.repeat(np.arange(values.size), splits + head)
    split = np.arange(first[-1]) - first[owner] - head[owner]
    is_head = split < 0
    rest = (gaps - reach)[owner]
    width = np.where(is_head, rest, widths[owner])
    offset = np.where(is_head, 0.0, rest + split * widths[owner])
    to_next = np.where(is_head, reach[owner], (splits[owner] - 1 - split) * widths[owner])

    # The same bound at every panel's right edge.
    above_p = above[owner]
    right_d = np.append(spread[1:], 0.0)[owner] + above_p * to_next
    live = np.flatnonzero(-right_d - above_p * math.log(2.0) > _UNDERFLOW)

    # Quadrature nodes (offsets from the left edge) and weights of the
    # live panels; the last panel is always among them. With s = e^{-(t -
    # edge)/b}, the last panel's integral is one Gauss-Legendre panel
    # over s in (0, 1], where the integrand is a power series in s.
    half = 0.5 * width[live, None]
    node = half * (1.0 + _NODES)
    weight = half * _WEIGHTS
    node[-1] = -np.log(0.5 * (1.0 + _NODES))
    weight[-1] = _WEIGHTS / (1.0 + _NODES)
    linear = -above_p[live, None] * (2.0 * half - node + math.log(2.0))
    linear -= right_d[live, None]
    # A_m / m at every live left edge, A_m = the sum over groups at or
    # below it of c_k e^{-m (edge - x_k)}.
    series = _discounted_cumsum(x, counts[:, None])[owner[live]]
    series *= np.exp(-np.multiply.outer(offset[live], _ORDERS))
    series /= _ORDERS
    return _Layout(
        counts, first, x[owner] + offset, live,
        math.exp(-spread[0] - total * math.log(2.0)) / total,
        0.5 * np.exp(-node), weight, linear, series,
    )


def _group_pmf(layout: _Layout, panel_g: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """``P[the noisy argmax has utility v_k]`` for every group of a row,
    from its live panels' integrals."""
    every_g = np.zeros(layout.edges.size, dtype=np.float64)
    every_g[layout.live] = panel_g
    every_moment = np.zeros((layout.edges.size, _ORDERS.size), dtype=np.float64)
    every_moment[layout.live] = moments
    # Group k sits above every panel left of it (h_b = 1/b there) and
    # below the rest, where its terms are the moments decayed back to x_k.
    starts = layout.first[:-1]
    left = np.concatenate(([0.0], np.cumsum(every_g)))[starts] + layout.low
    right = _discounted_cumsum(-layout.edges[::-1], every_moment[::-1])[::-1][starts]
    pmf = layout.counts * (left + right.sum(axis=1))
    error = abs(math.fsum(pmf) - 1.0)
    if not error <= _NORMALIZATION_TOLERANCE:
        raise MechanismError(
            f"Laplace argmax probabilities sum to 1 {error:+.3g} over "
            f"{pmf.size} utility groups; the quadrature failed"
        )
    return pmf


def _group_pmfs(
    rows: "Iterable[tuple[np.ndarray, np.ndarray]]", scale: float
) -> "Iterator[np.ndarray]":
    """Group probabilities of every ``(values, counts)`` row, in order.

    Rows are laid out one by one and their node integrals taken in passes
    of at most ``_PASS_PANELS`` live panels (a row larger than that is a
    pass of its own), so memory stays bounded and a row's result depends
    on that row alone.
    """
    batch: "list[_Layout]" = []
    held = 0
    for values, counts in rows:
        layout = _layout(values, counts, scale)
        if batch and held + layout.live.size > _PASS_PANELS:
            yield from _finish(batch)
            batch, held = [], 0
        batch.append(layout)
        held += layout.live.size
    if batch:
        yield from _finish(batch)


def _finish(batch: "list[_Layout]") -> "Iterator[np.ndarray]":
    """Group probabilities of a batch of rows, from one pass over the
    nodes of their live panels: the integral of ``G`` and of ``G r^m``,
    m = 1..56, on every panel. Every step of the pass is elementwise or
    sums one panel's 16 nodes, so no panel's values depend on the others.
    """
    ratio = np.concatenate([layout.ratio for layout in batch])
    series = np.concatenate([layout.series for layout in batch])
    # log G = linear - sum_m r^m A_m / m, the sum by Horner in r.
    log_g = series[:, -1, None] * ratio
    for column in range(_ORDERS.size - 2, -1, -1):
        log_g += series[:, column, None]
        log_g *= ratio
    np.subtract(np.concatenate([layout.linear for layout in batch]), log_g, out=log_g)
    mass = np.exp(log_g, out=log_g)
    mass *= np.concatenate([layout.weight for layout in batch])
    moments = np.empty((_ORDERS.size, ratio.shape[0]), dtype=np.float64)
    term = ratio.copy()
    for column in range(_ORDERS.size):
        np.einsum("pi,pi->p", mass, term, out=moments[column])
        term *= ratio
    panel_g, moments = mass.sum(axis=1), moments.T
    cut = 0
    for layout in batch:
        part = slice(cut, cut + layout.live.size)
        yield _group_pmf(layout, panel_g[part], moments[part])
        cut = part.stop


def _row_groups(support: np.ndarray, zeros: int) -> "tuple[np.ndarray, np.ndarray]":
    """A row's distinct utilities and their counts, its zero bucket first."""
    groups, counts = np.unique(support, return_counts=True)
    if zeros:
        return np.concatenate(([0.0], groups)), np.concatenate(([zeros], counts))
    return groups, counts


@register_mechanism
class LaplaceMechanism(PrivateMechanism):
    """Noisy-argmax recommender, the paper's ``A_L(epsilon)``."""

    name = "laplace"

    @property
    def noise_scale(self) -> float:
        """Scale ``b = Delta f / epsilon`` of the Laplace noise."""
        return self.sensitivity / self._epsilon

    def probabilities(self, vector: UtilityVector) -> np.ndarray:
        """Exact argmax probabilities for any number of candidates.

        Candidates with equal utility share their group's probability
        evenly.
        """
        groups, inverse, counts = np.unique(
            np.asarray(vector.values, dtype=np.float64),
            return_inverse=True,
            return_counts=True,
        )
        (pmf,) = _group_pmfs([(groups, counts)], self.noise_scale)
        return (pmf / counts)[inverse]

    def recommend(
        self, vector: UtilityVector, seed: "int | np.random.Generator | None" = None
    ) -> int:
        if len(vector) == 0:
            raise MechanismError("cannot recommend from an empty candidate set")
        telemetry_runtime.count("mechanism.samples_drawn")
        rng = ensure_rng(seed)
        noisy = vector.values + rng.laplace(0.0, self.noise_scale, size=len(vector))
        return int(vector.candidates[int(np.argmax(noisy))])

    def support_accuracies(
        self,
        values: np.ndarray,
        offsets: "np.ndarray | list[int]",
        zeros: "np.ndarray | list[int]",
    ) -> np.ndarray:
        """Exact expected accuracy of many rows from their positive supports.

        Row ``j``'s positive utilities are ``values[offsets[j]:offsets[j +
        1]]`` (non-empty, rows concatenated) and ``zeros[j]`` more
        candidates score zero, one more utility group. Each row is
        ``sum_k P[v_k] v_k / u_max`` over its groups (module docstring).
        Rows share node passes, but every step there is elementwise or
        sums one panel, so a row's value is the same alone
        (:meth:`~repro.mechanisms.base.Mechanism.expected_accuracy`) or
        among others (the experiment engine).
        """
        values = np.asarray(values, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        rows = [
            _row_groups(values[start:stop], zero)
            for start, stop, zero in zip(offsets[:-1], offsets[1:], zeros)
        ]
        pmfs = _group_pmfs(rows, self.noise_scale)
        return np.asarray(
            [math.fsum(pmf * (groups / groups[-1])) for (groups, _), pmf in zip(rows, pmfs)],
            dtype=np.float64,
        )
