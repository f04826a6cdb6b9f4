"""Parallel experiment runner: process-pool fan-out plus cell caching.

Experiment drivers decompose their work into independent ``(config, seed)``
cells (:class:`CellSpec`), hand them to :func:`run_cells`, and get back
:class:`CellResult` values in order.  Execution policy — worker count,
cache reads/writes, where the cache lives — is a :class:`RunnerConfig`,
threaded through from the CLI's ``--jobs`` / ``--no-cache`` flags or the
benchmark harness.

Cells that declare an :class:`EnvSpec` additionally opt into warm-world
forking (:mod:`repro.runner.worldcache`): the first cell to need a
simulated world builds it and, when a later cell of the run declares the
same world, a :class:`WorldSnapshot` checkpoints it; those later cells
fork the checkpoint instead of rebuilding — byte-identically — and the
last of them releases it.
"""

from repro.errors import CellExecutionError
from repro.runner.cache import CACHE_DIR_ENV, CellCache, default_cache_dir
from repro.runner.cellspec import (
    CellResult,
    CellSpec,
    CellSpecError,
    cache_key,
    canonicalize,
)
from repro.runner.pool import RunnerConfig, RunStats, run_cells
from repro.runner.worldcache import (
    DEFAULT_WORLD_CACHE_SIZE,
    WORLD_CACHE_SIZE_ENV,
    EnvSpec,
    WorldCache,
    WorldSnapshot,
    current_later_uses,
    current_world_cache,
    process_world_cache,
    reset_process_world_cache,
    world_cache_context,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CellCache",
    "CellExecutionError",
    "CellResult",
    "CellSpec",
    "CellSpecError",
    "DEFAULT_WORLD_CACHE_SIZE",
    "EnvSpec",
    "RunStats",
    "RunnerConfig",
    "WORLD_CACHE_SIZE_ENV",
    "WorldCache",
    "WorldSnapshot",
    "cache_key",
    "canonicalize",
    "current_later_uses",
    "current_world_cache",
    "default_cache_dir",
    "process_world_cache",
    "reset_process_world_cache",
    "run_cells",
    "world_cache_context",
]
