"""Chunked compute layer: one kernel pipeline, run inline chunk by chunk.

The paper's Section 7 measurements and the serving layer reduce to the
same computation — per-target utility rows, candidate masks, and
mechanism kernels over them. This package is that computation's single
home, split into small pieces:

* :mod:`~repro.compute.kernels` — the canonical
  ``batch_scores -> candidate_mask -> compact rows / UtilityVector``
  stage (support-form rows for serving), shared by serving, the batched
  experiment engine, and the parameter sweeps;
* :mod:`~repro.compute.plan` — :class:`ComputePlan`, which splits a
  target list into fixed-size chunks so peak dense allocation is
  ``chunk_size x num_nodes`` instead of ``len(targets) x num_nodes``;
* :mod:`~repro.compute.workspace` — the per-thread arena of reusable
  dense buffers the chunks stream through;
* :mod:`~repro.compute.incremental` — journaled score deltas that patch
  cached rows after an edge mutation.

Every batched pipeline runs its chunks one after another on the calling
thread and reassembles results in target order. Determinism contract:
every kernel stage is per-target independent and all per-target
randomness flows through explicitly spawned streams
(:func:`repro.rng.spawn_rngs`), so for a fixed seed the output is
bit-identical across chunk sizes.
"""

from .incremental import (
    COMPONENTS_KEY,
    EdgeScoreDelta,
    apply_edge_delta,
    compute_edge_delta,
    patch_utility_vector,
)
from .kernels import (
    CompactChunk,
    fused_compact_rows,
    utility_vectors,
)
from .plan import (
    COMPUTE_DTYPES,
    ComputePlan,
    TargetChunk,
    contiguous_node_range,
    resolve_dtype,
)
from .workspace import Workspace, get_workspace, reset_workspace

__all__ = [
    "COMPONENTS_KEY",
    "COMPUTE_DTYPES",
    "CompactChunk",
    "ComputePlan",
    "EdgeScoreDelta",
    "TargetChunk",
    "Workspace",
    "apply_edge_delta",
    "compute_edge_delta",
    "contiguous_node_range",
    "fused_compact_rows",
    "get_workspace",
    "patch_utility_vector",
    "resolve_dtype",
    "reset_workspace",
    "utility_vectors",
]
