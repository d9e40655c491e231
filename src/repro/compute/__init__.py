"""Chunked compute layer: one kernel pipeline, run inline chunk by chunk.

The paper's Section 7 measurements and the serving layer reduce to the
same computation — per-target utility rows, excluded ids, and
mechanism kernels over them. This package is that computation's single
home, split into small pieces:

* :mod:`~repro.compute.kernels` — the canonical
  ``support_scores -> excluded rows -> positive supports`` stage
  (support-form ``UtilityVector`` rows for serving, filtered flat
  supports for the experiment engine and the parameter sweeps);
* :mod:`~repro.compute.plan` — :class:`ComputePlan`, which splits a
  target list into chunks sized by one byte budget
  (:data:`~repro.compute.plan.CHUNK_BYTES`), so peak dense allocation is
  bounded by the budget instead of ``len(targets) x num_nodes``;
* :mod:`~repro.compute.workspace` — the per-thread arena of reusable
  dense buffers the chunks stream through;
* :mod:`~repro.compute.incremental` — journaled score deltas that patch
  cached rows after an edge mutation.

Every stage that allocates a dense ``rows x num_nodes`` block runs its
chunks one after another on the calling thread and reassembles results
in target order; a stage with no dense block runs in one pass.
Determinism contract: every kernel stage is per-target independent, the
experiment engine's per-target randomness flows through explicitly
spawned streams (:func:`repro.rng.spawn_rngs`), and a served pick depends
only on its row and its own two uniforms, so for a fixed seed the output
is bit-identical whatever the budget.
"""

from .incremental import (
    COMPONENTS_KEY,
    EdgeScoreDelta,
    compute_edge_delta,
    patch_utility_vector,
)
from .kernels import utility_vectors
from .plan import ComputePlan, TargetChunk, contiguous_node_range
from .workspace import Workspace, get_workspace, reset_workspace

__all__ = [
    "COMPONENTS_KEY",
    "ComputePlan",
    "EdgeScoreDelta",
    "TargetChunk",
    "Workspace",
    "compute_edge_delta",
    "contiguous_node_range",
    "get_workspace",
    "patch_utility_vector",
    "reset_workspace",
    "utility_vectors",
]
