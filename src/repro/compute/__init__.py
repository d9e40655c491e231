"""Compute layer: one kernel pipeline over sparse support rows.

The paper's Section 7 measurements and the serving layer reduce to the
same computation — per-target utility rows, excluded ids, and
mechanism kernels over them. This package is that computation's single
home, split into small pieces:

* :mod:`~repro.compute.kernels` — the canonical
  ``support_scores -> excluded rows -> positive supports`` stage
  (support-form ``UtilityVector`` rows for serving, filtered flat
  supports for the experiment engine and the parameter sweeps);
* :mod:`~repro.compute.incremental` — journaled score deltas that patch
  cached rows after an edge mutation.

No stage holds a ``rows x num_nodes`` block: utilities produce sparse
score rows (a sparse product, sparse walk rows recombined, or one
``scores`` row at a time), so every stage runs in one pass on the
calling thread and its memory grows with the rows' supports, not with
``num_nodes``. Determinism contract: every kernel stage is per-target
independent, the experiment engine's per-target randomness flows
through explicitly spawned streams (:func:`repro.rng.spawn_rngs`), and a
served pick depends only on its row and its own two uniforms, so for a
fixed seed the output is bit-identical however the targets are split
across calls.
"""

from .incremental import (
    COMPONENTS_KEY,
    EdgeScoreDelta,
    compute_edge_delta,
    patch_utility_vector,
)
from .kernels import utility_vectors

__all__ = [
    "COMPONENTS_KEY",
    "EdgeScoreDelta",
    "compute_edge_delta",
    "patch_utility_vector",
    "utility_vectors",
]
