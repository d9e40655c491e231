"""Sharded compute layer: one kernel pipeline, pluggable executors.

The paper's Section 7 measurements and the serving layer reduce to the
same computation — per-target utility rows, candidate masks, and
mechanism kernels over them. This package is that computation's single
home, split into three small pieces:

* :mod:`~repro.compute.kernels` — the canonical
  ``batch_scores -> candidate_mask -> compact rows / UtilityVector``
  stage (support-form rows for serving), shared by serving, the batched
  experiment engine, and the parameter sweeps;
* :mod:`~repro.compute.plan` — :class:`ComputePlan`, which splits a
  target list into fixed-size chunks so peak dense allocation is
  ``chunk_size x num_nodes`` instead of ``len(targets) x num_nodes``;
* :mod:`~repro.compute.executors` — :class:`SerialExecutor`,
  :class:`ThreadExecutor`, and :class:`ProcessExecutor`, which shard
  chunks across workers and reassemble results in target order.

Determinism contract: every kernel stage is per-target independent and
all per-target randomness flows through explicitly spawned streams
(:func:`repro.rng.spawn_rngs`), so for a fixed seed the output is
bit-identical across chunk sizes and executors — serial, threaded, or
multiprocess. ``benchmarks/bench_compute.py`` asserts that identity
before timing anything.
"""

from .executors import (
    EXECUTOR_NAMES,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    acquire_executor_lease,
    make_executor,
    release_executor_lease,
)
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
    DEFAULT_CHUNK_SIZE,
    ComputePlan,
    TargetChunk,
    contiguous_node_range,
    resolve_dtype,
)
from .shipping import Shipped, decode_shared, encode_shared, shipped_nbytes
from .workspace import Workspace, get_workspace, reset_workspace

__all__ = [
    "COMPONENTS_KEY",
    "COMPUTE_DTYPES",
    "CompactChunk",
    "ComputePlan",
    "DEFAULT_CHUNK_SIZE",
    "EXECUTOR_NAMES",
    "EdgeScoreDelta",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "Shipped",
    "TargetChunk",
    "ThreadExecutor",
    "Workspace",
    "acquire_executor_lease",
    "apply_edge_delta",
    "compute_edge_delta",
    "contiguous_node_range",
    "decode_shared",
    "encode_shared",
    "fused_compact_rows",
    "get_workspace",
    "make_executor",
    "patch_utility_vector",
    "release_executor_lease",
    "resolve_dtype",
    "reset_workspace",
    "shipped_nbytes",
    "utility_vectors",
]
