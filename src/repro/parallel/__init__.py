"""Parallel experiment engine.

Experiments decompose into independent *cells* — (experiment, mode,
seed/trial) triples that each build their own seeded :class:`Simulation`
and share no state.  This package shards cells across a
``multiprocessing`` pool:

* :func:`parallel_map` — run one picklable cell function over a list of
  argument tuples, on ``jobs`` worker processes (serial when
  ``jobs <= 1``, when there is one cell, or inside a worker — nested
  maps never spawn nested pools);
* :func:`shard_seed` — deterministic per-shard seed derivation
  (sha256-based, stable across processes, platforms and
  ``PYTHONHASHSEED``);
* :func:`merge_indexed` — the order-independent result merge: workers
  finish in any order, results are reassembled by cell index.

The contract is **byte-identical reports**: because every cell is a
pure function of its arguments and the merge is keyed by cell index,
``--jobs N`` produces exactly the output of the serial run — the pool
only changes wall-clock time, never virtual time or report content.
"""

from .pool import in_worker, parallel_map, resolve_jobs
from .merge import merge_dicts, merge_indexed
from .seeding import shard_seed, trial_seeds

__all__ = [
    "in_worker",
    "merge_dicts",
    "merge_indexed",
    "parallel_map",
    "resolve_jobs",
    "shard_seed",
    "trial_seeds",
]
