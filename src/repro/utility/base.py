"""Utility-function abstraction (Section 3.1 of the paper).

A utility function assigns to every candidate node ``i`` a non-negative
score ``u^{G,r}_i`` measuring the goodness of recommending ``i`` to the
target ``r``, computed *only* from the structure of the graph (the
graph-link-analysis restriction). The paper's accuracy definition is
invariant to rescaling a utility vector, and mechanisms consume utility
vectors rather than graphs, so :class:`UtilityVector` is the interchange
type between the two layers.

Candidate set convention (Section 7.1): all nodes except the target and the
nodes it already links to (out-neighbors on directed graphs).
"""

from __future__ import annotations

import abc

import numpy as np
from scipy import sparse

from ..errors import UtilityError
from ..graphs.graph import SocialGraph


def _checked_utilities(values, where=True) -> np.ndarray:
    """``values`` as a float array, rejecting negative and non-finite entries.

    Only entries selected by ``where`` are checked. float32 rows survive
    packaging (a caller's own float32 utilities stay float32); everything
    else normalizes to float64. NaN fails every comparison, so
    the finiteness check runs on the extremes before the sign check can
    silently pass it.
    """
    values = np.asarray(values)
    if values.dtype != np.float32:
        values = values.astype(np.float64, copy=False)
    if values.size:
        low = values.min(initial=0.0, where=where)
        high = values.max(initial=0.0, where=where)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise UtilityError("utilities must be finite (got NaN or infinity)")
        if low < 0:
            raise UtilityError("utilities must be non-negative")
    return values


def support_rows(
    scores: sparse.csr_matrix, excluded: sparse.csr_matrix
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Every row's positive-utility support, rows concatenated.

    Row ``j`` of the two ``(rows, num_nodes)`` CSR matrices belongs to
    one target: ``scores`` holds its explicit entries (every unlisted
    node scores zero) and the pattern of ``excluded`` marks its excluded
    ids (the target and its links). Both are put in canonical form in
    place. As in :meth:`UtilityFunction.utility_vector`, scores at
    excluded ids are ignored and the remaining ones must be finite and
    non-negative (:class:`~repro.errors.UtilityError` otherwise).

    Returns ``(ids, values, offsets)``: row ``j``'s positive utilities
    are ``values[offsets[j]:offsets[j + 1]]`` at the ascending ``ids`` of
    the same slice. Every other candidate of the row scores zero, so its
    zero bucket holds ``num_nodes - excluded - support`` candidates. The
    one builder of support rows: serving's
    :meth:`UtilityVector.from_support_rows`, the experiment engine and
    the gamma sweep all read their rows through it.
    """
    rows, num_nodes = scores.shape
    if excluded.shape != scores.shape:
        raise UtilityError(
            f"score and excluded rows must match, got {scores.shape} and "
            f"{excluded.shape}"
        )
    scores.sum_duplicates()
    excluded.sum_duplicates()
    # Flat (row, id) keys, unique and ascending: rows in order, ids
    # sorted within. Excluded keys are few, so they are the queries.
    row_starts = np.arange(rows, dtype=np.int64) * num_nodes
    keys = np.repeat(row_starts, np.diff(scores.indptr)) + scores.indices
    excluded_keys = np.repeat(row_starts, np.diff(excluded.indptr)) + excluded.indices
    keep = np.ones(keys.size, dtype=bool)
    if keys.size:
        slots = np.minimum(np.searchsorted(keys, excluded_keys), keys.size - 1)
        keep[slots[keys[slots] == excluded_keys]] = False
    data = _checked_utilities(scores.data, where=keep)
    keep &= data > 0
    offsets = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=offsets[1:])
    return scores.indices[keep].astype(np.int64), data[keep], offsets[scores.indptr]


def _sorted_ids(ids, name: str, num_nodes: int) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise UtilityError(f"{name} must be a 1-d array, got shape {ids.shape}")
    if ids.size and (ids[0] < 0 or ids[-1] >= num_nodes or (np.diff(ids) <= 0).any()):
        raise UtilityError(f"{name} must be strictly increasing node ids in [0, {num_nodes})")
    return ids


class UtilityVector:
    """Utilities of recommending each candidate node to a fixed target.

    Two storage forms share one interface:

    * **dense** — ``UtilityVector(target, candidates, values, target_degree)``
      stores the candidate ids and their utilities as parallel arrays;
    * **support** — :meth:`from_support` (one row) and
      :meth:`from_support_rows` (many rows) store only the sorted ids with
      positive utility, their values, the sorted excluded ids
      (``{target}`` plus its current links) and ``num_nodes``. Every other
      node is a zero-utility candidate, so the row costs
      O(support + degree) bytes however large the graph.

    ``candidates`` and ``values`` are the dense view in both forms; a
    support-form vector derives them on each access (O(num_nodes)) and
    never stores them. Hot paths use :meth:`support`, :attr:`zero_count`
    and :meth:`zero_candidate` instead, which cost O(support + degree) on
    a support-form vector. Vectors are immutable: cached rows are shared
    with every reader.

    Attributes
    ----------
    target:
        The node receiving the recommendation (the ``r`` of the paper).
    candidates:
        Integer ids of candidate nodes, ascending when built from a graph,
        parallel to ``values``.
    values:
        Finite non-negative utility scores ``u_i``.
    target_degree:
        ``d_r``, the target's (out-)degree — needed by the experimental
        ``t`` formulas of Section 7.1.
    """

    def __init__(
        self,
        target: int,
        candidates: np.ndarray,
        values: np.ndarray,
        target_degree: int,
        metadata: "dict | None" = None,
    ) -> None:
        candidates = np.asarray(candidates, dtype=np.int64)
        values = _checked_utilities(values)
        if candidates.shape != values.shape or candidates.ndim != 1:
            raise UtilityError(
                f"candidates {candidates.shape} and values {values.shape} must be parallel 1-d arrays"
            )
        self._set(target, target_degree, metadata, candidates, values, None, None)

    @classmethod
    def from_support(
        cls,
        target: int,
        ids: np.ndarray,
        scores: np.ndarray,
        excluded: np.ndarray,
        num_nodes: int,
        target_degree: int,
        metadata: "dict | None" = None,
    ) -> "UtilityVector":
        """A support-form vector from one sparse score row.

        ``ids`` (strictly increasing) and ``scores`` are the row's explicit
        entries; every unlisted node scores zero. ``excluded`` (strictly
        increasing) lists the target and its links. The one-row case of
        :meth:`from_support_rows`, which states the rules.
        """
        num_nodes = int(num_nodes)
        ids = _sorted_ids(ids, "ids", num_nodes)
        excluded = _sorted_ids(excluded, "excluded", num_nodes)
        scores = np.asarray(scores)
        if scores.shape != ids.shape:
            raise UtilityError(
                f"ids {ids.shape} and scores {scores.shape} must be parallel 1-d arrays"
            )

        def row(indices: np.ndarray, data: np.ndarray) -> sparse.csr_matrix:
            return sparse.csr_matrix((data, indices, [0, indices.size]), shape=(1, num_nodes))

        return cls.from_support_rows(
            [target], row(ids, scores), row(excluded, np.ones(excluded.size)),
            [target_degree], metadata,
        )[0]

    @classmethod
    def from_support_rows(
        cls,
        targets: "np.ndarray | list[int]",
        scores: sparse.csr_matrix,
        excluded: sparse.csr_matrix,
        target_degrees: "np.ndarray | list[int]",
        metadata: "dict | None" = None,
    ) -> "list[UtilityVector]":
        """Support-form vectors for many targets from sparse score rows.

        Row ``j`` of the ``(len(targets), num_nodes)`` CSR matrices
        belongs to ``targets[j]``; :func:`support_rows` states the rules
        and checks every row's utilities at once. Zero scores join the
        zero bucket with every unlisted candidate, so each stored support
        holds positive utilities only. Each vector owns its arrays.
        """
        targets = np.asarray(targets, dtype=np.int64)
        if targets.shape != (scores.shape[0],):
            raise UtilityError(
                f"{targets.shape} targets need {scores.shape[0]} score rows"
            )
        support, values, offsets = support_rows(scores, excluded)
        num_nodes = scores.shape[1]
        bounds = offsets.tolist()
        cuts = excluded.indptr.tolist()
        excluded_ids = excluded.indices.astype(np.int64)
        vectors = []
        for row, (target, degree) in enumerate(zip(targets.tolist(), target_degrees)):
            low, high = bounds[row], bounds[row + 1]
            vector = cls.__new__(cls)
            vector._set(
                target, degree, dict(metadata or {}),
                support[low:high].copy(), values[low:high].copy(),
                excluded_ids[cuts[row]:cuts[row + 1]].copy(), num_nodes,
            )
            vectors.append(vector)
        return vectors

    def _set(self, target, target_degree, metadata, ids, values, excluded, num_nodes) -> None:
        # ``_ids``/``_values`` hold the candidates (dense form) or the
        # support (support form, marked by ``_excluded`` not being None).
        state = self.__dict__
        state["target"] = int(target)
        state["target_degree"] = int(target_degree)
        state["metadata"] = {} if metadata is None else metadata
        state["_ids"] = ids
        state["_values"] = values
        state["_excluded"] = excluded
        state["_num_nodes"] = num_nodes

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"UtilityVector is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return self.num_candidates

    @property
    def candidates(self) -> np.ndarray:
        if self._excluded is None:
            return self._ids
        keep = np.ones(self._num_nodes, dtype=bool)
        keep[self._excluded] = False
        return np.flatnonzero(keep)

    @property
    def values(self) -> np.ndarray:
        if self._excluded is None:
            return self._values
        values = np.zeros(self.num_candidates, dtype=self._values.dtype)
        # A support id's candidate position is its id minus the excluded
        # ids below it.
        values[self._ids - np.searchsorted(self._excluded, self._ids)] = self._values
        return values

    @property
    def num_candidates(self) -> int:
        """Number of candidate nodes ``n`` in the bound formulas."""
        if self._excluded is None:
            return int(self._ids.size)
        return self._num_nodes - int(self._excluded.size)

    def support(self) -> "tuple[np.ndarray, np.ndarray]":
        """Ascending ids of the positive-utility candidates, and their values."""
        if self._excluded is not None:
            return self._ids, self._values
        positive = self._values > 0
        return self._ids[positive], self._values[positive]

    @property
    def excluded(self) -> "np.ndarray | None":
        """Ascending excluded ids (the target and its links) of a
        support-form vector; ``None`` for a dense one."""
        return self._excluded

    def with_support(self, ids: np.ndarray, values: np.ndarray, metadata: dict) -> "UtilityVector":
        """This support-form vector with its positive support replaced.

        Target, degree and excluded ids are kept. The caller guarantees
        what :meth:`from_support_rows` would establish: ``ids`` strictly
        increasing non-excluded node ids, ``values`` positive and finite.
        """
        vector = UtilityVector.__new__(UtilityVector)
        vector._set(
            self.target, self.target_degree, metadata, ids, values,
            self._excluded, self._num_nodes,
        )
        return vector

    def without(self, node: int) -> "UtilityVector":
        """This vector with candidate ``node`` removed, form kept.

        Top-k serving peels each pick off the row before drawing the
        next. A support-form row drops ``node`` from its support (if
        there) and inserts it into its sorted excluded ids, in
        O(support + degree); a dense row masks it out of its parallel
        arrays. Either way the dense view and the support are those of
        the row with ``node``'s candidate position deleted.
        """
        node = int(node)
        if self._excluded is None:
            keep = self._ids != node
            if keep.all():
                raise UtilityError(f"node {node} is not a candidate for target {self.target}")
            return UtilityVector(
                self.target, self._ids[keep], self._values[keep], self.target_degree,
                dict(self.metadata),
            )
        slot = int(self._excluded.searchsorted(node))
        if not 0 <= node < self._num_nodes or (
            slot < self._excluded.size and self._excluded[slot] == node
        ):
            raise UtilityError(f"node {node} is not a candidate for target {self.target}")
        ids, values = self._ids, self._values
        at = int(ids.searchsorted(node))
        if at < ids.size and ids[at] == node:
            ids = np.concatenate((ids[:at], ids[at + 1:]))
            values = np.concatenate((values[:at], values[at + 1:]))
        excluded = np.concatenate((self._excluded[:slot], [node], self._excluded[slot:]))
        vector = UtilityVector.__new__(UtilityVector)
        vector._set(
            self.target, self.target_degree, dict(self.metadata), ids, values,
            excluded, self._num_nodes,
        )
        return vector

    @property
    def zero_count(self) -> int:
        """Number of zero-utility candidates (the paper's Section 7 bucket)."""
        if self._excluded is not None:
            return self.num_candidates - int(self._ids.size)
        return int(self._values.size - np.count_nonzero(self._values))

    def zero_candidate(self, rank: int) -> int:
        """The ``rank``-th smallest zero-utility candidate id (0-based).

        Support form: a sort-free rank-select over the sorted, disjoint
        excluded and support ids, O(degree log support + support).

        * One ``searchsorted`` of the excluded ids into the support gives
          the free ids below each excluded id, hence the number ``k`` of
          excluded ids below the pick.
        * The pick is then the ``(rank + k)``-th id outside the support.
          ``support[i] - i`` such ids lie below ``support[i]``, so a
          binary search over the support finds it.
        """
        rank = int(rank)
        if not 0 <= rank < self.zero_count:
            raise UtilityError(f"zero-utility rank {rank} out of range [0, {self.zero_count})")
        if self._excluded is None:
            return int(self._ids[np.flatnonzero(self._values == 0)[rank]])
        support, excluded = self._ids, self._excluded
        free = excluded - np.arange(excluded.size) - support.searchsorted(excluded)
        rank += int(free.searchsorted(rank, side="right"))
        gaps = support - np.arange(support.size)
        return rank + int(gaps.searchsorted(rank, side="right"))

    @property
    def u_max(self) -> float:
        """Maximum utility — the denominator of the accuracy definition."""
        if self.num_candidates == 0:
            raise UtilityError("empty utility vector has no maximum")
        return float(self._values.max()) if self._values.size else 0.0

    @property
    def best_candidate(self) -> int:
        """Candidate achieving ``u_max`` (lowest id on ties, deterministic)."""
        if self.num_candidates == 0:
            raise UtilityError("empty utility vector has no maximum")
        if self._ids.size == 0:  # support form, every candidate at zero
            return self.zero_candidate(0)
        return int(self._ids[int(np.argmax(self._values))])

    @property
    def total(self) -> float:
        """Total utility mass (used by the concentration axiom)."""
        return float(self.values.sum())

    def has_signal(self) -> bool:
        """Whether any candidate has non-zero utility.

        The paper omits "a negligible number of the nodes that have no
        non-zero utility recommendations available to them" (footnote 10);
        the harness uses this predicate to apply the same filter.
        """
        return bool(self._values.size) and float(self._values.max()) > 0.0

    def _with_values(self, values: np.ndarray) -> "UtilityVector":
        """This vector with its stored utilities replaced, form kept."""
        if self._excluded is None:
            return UtilityVector(
                self.target, self._ids, values, self.target_degree, dict(self.metadata)
            )
        return UtilityVector.from_support(
            self.target, self._ids, values, self._excluded, self._num_nodes,
            self.target_degree, dict(self.metadata),
        )

    def rescaled(self, factor: float) -> "UtilityVector":
        """Return a copy with all utilities multiplied by ``factor > 0``.

        Accuracy results are invariant under this operation (Section 3.3);
        tests rely on that invariance.
        """
        if factor <= 0:
            raise UtilityError(f"rescale factor must be positive, got {factor}")
        return self._with_values(self._values * float(factor))

    def value_of(self, candidate: int) -> float:
        """Utility of a specific candidate id."""
        matches = np.nonzero(self.candidates == int(candidate))[0]
        if matches.size == 0:
            raise UtilityError(f"node {candidate} is not a candidate for target {self.target}")
        return float(self.values[int(matches[0])])


def candidate_nodes(graph: SocialGraph, target: int) -> np.ndarray:
    """Candidates for ``target``: every node except itself and current links.

    Mask-based: one boolean vector and one ``nonzero`` instead of a Python
    membership-test loop over every node, keeping the per-target reference
    path cheap on replica-scale graphs. Candidates come back in ascending
    node order, as before.
    """
    target = int(target)
    mask = np.ones(graph.num_nodes, dtype=bool)
    neighbors = graph.out_neighbors(target)
    if neighbors:
        mask[np.fromiter(neighbors, dtype=np.int64, count=len(neighbors))] = False
    mask[target] = False
    return np.flatnonzero(mask).astype(np.int64, copy=False)


class UtilityFunction(abc.ABC):
    """Base class for graph link-analysis utility functions.

    Subclasses implement :meth:`scores`, returning raw scores for every node
    in the graph; the base class handles candidate selection and packaging.
    They also expose the two quantities the privacy layer needs:

    * :meth:`sensitivity` — an analytic upper bound on the L1 change of the
      utility vector under a single (non-target-incident) edge flip, the
      ``Delta f`` of the paper's footnote 5;
    * :meth:`experimental_t` — the exact edit count ``t`` used by the
      experimental evaluation of the Corollary 1 bound (Section 7.1).
    """

    #: Short identifier used in registries and result files.
    name: str = "abstract"

    @abc.abstractmethod
    def scores(self, graph: SocialGraph, target: int) -> np.ndarray:
        """Raw score of every node in the graph for ``target`` (length n)."""

    def support_scores(
        self, graph: SocialGraph, targets: "np.ndarray | list[int]"
    ) -> sparse.csr_matrix:
        """Raw scores for many targets as a sparse float64 CSR matrix.

        The input of every support-row consumer (:func:`support_rows`:
        serving's :func:`repro.compute.kernels.utility_vectors` and the
        experiment engine): row ``j`` holds every non-zero score of
        ``targets[j]`` (entries for the target or its links may appear;
        the builder ignores them). This default calls :meth:`scores`
        once per target and keeps each row's non-zeros, so it holds one
        ``num_nodes`` row at a time; utilities with a sparse product
        form override it.
        """
        targets = np.asarray(targets, dtype=np.int64)
        ids, values = [], []
        for target in targets.tolist():
            row = self._score_row(graph, target)
            nonzero = np.flatnonzero(row)
            ids.append(nonzero)
            values.append(row[nonzero])
        indptr = np.zeros(targets.size + 1, dtype=np.int64)
        np.cumsum([part.size for part in ids], out=indptr[1:])
        return sparse.csr_matrix(
            (
                np.concatenate(values) if values else np.empty(0),
                np.concatenate(ids) if ids else np.empty(0, dtype=np.int64),
                indptr,
            ),
            shape=(targets.size, graph.num_nodes),
        )

    def _score_row(self, graph: SocialGraph, target: int) -> np.ndarray:
        """:meth:`scores` of ``target`` as float64, checked to be ``num_nodes`` long."""
        row = np.asarray(self.scores(graph, target), dtype=np.float64)
        if row.shape != (graph.num_nodes,):
            raise UtilityError(
                f"{type(self).__name__}.scores returned shape {row.shape}, "
                f"expected ({graph.num_nodes},)"
            )
        return row

    @abc.abstractmethod
    def sensitivity(self, graph: SocialGraph, target: int) -> float:
        """Analytic bound on ``||u^G - u^G'||_1`` over one-edge neighbors G'."""

    # ------------------------------------------------------------------
    # Walk-component decomposition (incremental score maintenance)
    # ------------------------------------------------------------------
    def walk_component_lengths(self) -> "tuple[int, ...] | None":
        """Walk lengths whose exact counts linearly decompose this utility.

        The contract behind in-place cache patching
        (:mod:`repro.compute.incremental`): when this returns lengths
        ``(2, ..., L)`` — contiguous, starting at 2 — the utility's score
        of candidate ``i`` for target ``r`` is a fixed linear combination
        of the exact length-``k`` walk counts ``(A^k)[r, i]``, and

        * :meth:`walk_rows` produces those counts as sparse rows (exact
          integers in float64, one matrix per length);
        * :meth:`combine_component_rows` recombines them with the
          *identical* accumulation sequence as :meth:`scores`, so
          ``combine(components)`` is bit-for-bit equal to a from-scratch
          score — the property that lets a cache patch the integer
          components under edge deltas and recombine without ever
          drifting from full recomputation.

        A utility returning ``(2,)`` scores exactly its length-2 walk
        count, so its support row is its own component side-car.
        ``None`` (the default) means "not decomposable"; caches then
        flush on every graph version change.
        """
        return None

    def walk_rows(
        self, graph: SocialGraph, links: sparse.csr_matrix
    ) -> "list[sparse.csr_matrix]":
        """Exact per-length walk-count rows for many targets at once.

        ``links`` is ``graph.adjacency_rows(targets)``, the length-1 walk
        rows; the result holds one ``(len(targets), num_nodes)`` CSR
        matrix per entry of :meth:`walk_component_lengths`, each one more
        :meth:`~repro.graphs.graph.SocialGraph.adjacency_product` step.
        Only meaningful when :meth:`walk_component_lengths` is not
        ``None``.
        """
        raise UtilityError(
            f"utility function {self.name!r} does not decompose into walk components"
        )

    def combine_component_rows(self, components):
        """Recombine per-length walk counts into scores, entry by entry.

        ``components`` holds one count row per walk length, in the order
        of :meth:`walk_component_lengths`: either a ``(num_lengths,
        columns)`` float64 block (a cached row's side-car) or the list of
        sparse matrices :meth:`walk_rows` returns. Returns the scores in
        the same form (an array or a CSR matrix), using the same
        elementwise multiply-accumulate sequence as :meth:`scores`, so
        either form and any column subset recombine bit-identically.
        """
        raise UtilityError(
            f"utility function {self.name!r} does not decompose into walk components"
        )

    def experimental_t(self, vector: UtilityVector) -> int:
        """Edit count ``t`` promoting a zero-utility node to strict maximum.

        Default: the generic bound from Theorem 1 cannot be computed from a
        vector alone, so subclasses that appear in experiments override this
        with the closed forms of Section 7.1.
        """
        raise UtilityError(
            f"utility function {self.name!r} does not define an experimental t; "
            "use bounds.edit_distance.promotion_edit_count on the graph instead"
        )

    def experimental_t_batch(
        self, u_maxes: np.ndarray, degrees: np.ndarray
    ) -> "np.ndarray | None":
        """Vectorized :meth:`experimental_t` over parallel per-target arrays.

        The Section 7.1 closed forms depend only on ``u_max`` and the
        target degree, so the experiment engine computes every
        ``t`` in one array expression and skips materializing
        :class:`UtilityVector` objects entirely when no mechanism needs
        them. Returns ``None`` (the default) when only the per-vector
        form exists — the engine then falls back to it, element for
        element identical. Overrides must return int64 values equal to
        ``experimental_t`` on each row's vector, bit for bit.
        """
        return None

    def utility_vector(self, graph: SocialGraph, target: int) -> UtilityVector:
        """Compute the utility vector of ``target`` over its candidate set."""
        target = int(target)
        if not 0 <= target < graph.num_nodes:
            raise UtilityError(f"target {target} out of range for graph of size {graph.num_nodes}")
        all_scores = self._score_row(graph, target)
        candidates = candidate_nodes(graph, target)
        return UtilityVector(
            target=target,
            candidates=candidates,
            values=all_scores[candidates],
            target_degree=graph.out_degree(target),
            metadata={"utility": self.name},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, type] = {}


def register_utility(cls: type) -> type:
    """Class decorator adding a utility function to the global registry."""
    if not issubclass(cls, UtilityFunction):
        raise UtilityError(f"{cls!r} is not a UtilityFunction")
    _REGISTRY[cls.name] = cls
    return cls


def utility_registry() -> dict[str, type]:
    """Snapshot of registered utility-function classes keyed by name."""
    return dict(_REGISTRY)


def make_utility(name: str, **kwargs) -> UtilityFunction:
    """Instantiate a registered utility function by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise UtilityError(f"unknown utility function {name!r}; known: {known}") from None
    return cls(**kwargs)
