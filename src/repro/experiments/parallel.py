"""Parallel experiment execution with a content-addressed result cache.

The paper's methodology is embarrassingly parallel — every figure is a
sweep of independent ``(config, seed)`` runs — but the seed executed
them strictly serially.  This module is the execution layer the sweeps
go through instead:

* :class:`RunSpec` — a frozen, picklable description of one run: a
  :class:`~repro.scenarios.spec.ScenarioSpec` (what runs) plus
  :class:`ExperimentSettings` (how long, which seed);
* :func:`run_grid` — fan a list of specs across worker processes
  (``multiprocessing`` *spawn* context, deterministic, results returned
  in submission order) with each worker reducing its run to a
  :class:`~repro.experiments.summary.RunSummary` before crossing the
  process boundary;
* a content-addressed on-disk cache (``.repro-cache/`` by default)
  keyed on a SHA-256 of settings + scenario content + package version
  — equal content is one address however the spec was spelled — so
  regenerating a figure twice costs one disk read per run.

Environment toggles::

    REPRO_CACHE=off        # disable the cache entirely
    REPRO_CACHE_DIR=path   # relocate it (default ./.repro-cache)

Sharded execution is not a mode of this module: it is the one explicit
call :func:`repro.experiments.shard.execute_spec_sharded`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Union

from .. import __version__
from ..serialize import canonical_json
from ..errors import ConfigurationError, WorkerCrashError
from ..scenarios.run import resolve_scenario, run_scenario
from ..scenarios.spec import ScenarioSpec
from .runner import DEFAULT_SETTINGS, ExperimentSettings
from .summary import RunSummary, summarize_run

__all__ = [
    "RunSpec",
    "run_grid",
    "execute_spec",
    "cache_enabled",
    "cache_dir",
    "spec_cache_key",
    "cache_key_from_dict",
    "cache_load",
    "cache_store",
    "clear_cache",
]

CACHE_ENV = "REPRO_CACHE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"

#: Version stamped into every cache key: a new release invalidates all
#: cached summaries (simulation or analysis code may have changed).
_PACKAGE_VERSION = __version__


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """One (config, seed) run, fully described by plain data.

    ``scenario`` is everything about *what* runs (a
    :class:`ScenarioSpec`, or a library name / serialized dict coerced
    to one); ``settings`` is how long and under which seed.  Vary one
    axis with ``scenario("baseline_traffic", mitigation=plan)``.
    Everything here pickles cleanly under the *spawn* start method and
    hashes canonically for the result cache.  ``label`` is presentation
    only and excluded from the cache key.
    """

    scenario: ScenarioSpec = "baseline_traffic"  # type: ignore[assignment]
    settings: ExperimentSettings = DEFAULT_SETTINGS
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", resolve_scenario(self.scenario))

    def with_seed(self, seed: int) -> RunSpec:
        """A copy of this spec running under a different seed."""
        return replace(self, settings=replace(self.settings, seed=seed))

    @property
    def display_label(self) -> str:
        """What summaries of this run are labelled: the explicit label,
        else the scenario's name — the same on a cold and a cached run."""
        return self.label or self.scenario.name

    def key_dict(self) -> dict:
        """Canonical content for hashing: settings + scenario content
        (label and the scenario's name/description excluded)."""
        return {
            "settings": asdict(self.settings),
            "scenario": self.scenario.key_dict(),
        }


# ----------------------------------------------------------------------
# the worker-side step
# ----------------------------------------------------------------------

def execute_spec(spec: RunSpec) -> RunSummary:
    """Run one spec to completion and reduce it to a summary."""
    result = run_scenario(spec.scenario, settings=spec.settings)
    return summarize_run(
        result,
        spec.settings,
        kind="scenario",
        label=spec.display_label,
        scenario=spec.scenario.name,
    )


def spawn_map(function: Callable, payloads: list, workers: int) -> Iterator:
    """Yield ``function(payload)`` for every payload, in completion
    order, from *workers* spawn processes.

    A worker process that dies raises :class:`WorkerCrashError` rather
    than leaving the caller waiting on a result that never comes.
    """
    # imported here: serial runs (the common case) never pay for it
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("spawn")
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            futures = [pool.submit(function, payload) for payload in payloads]
            for future in as_completed(futures):
                yield future.result()
    except BrokenProcessPool as exc:
        raise WorkerCrashError(f"a spawn worker process died: {exc}") from exc


def _worker(payload):
    """Pool entry point: returns ``(index, summary_dict)``.

    Only the plain dict crosses the process boundary — the live job
    (generators, callbacks) dies with the worker.
    """
    index, spec = payload
    return index, execute_spec(spec).to_dict()


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------

def cache_enabled() -> bool:
    """Whether the on-disk cache is active (``REPRO_CACHE=off`` kills it)."""
    return os.environ.get(CACHE_ENV, "").lower() not in ("off", "0", "false", "no")


def cache_dir(directory: Optional[Union[str, Path]] = None) -> Path:
    """Resolve the cache directory (argument > env > default)."""
    if directory is not None:
        return Path(directory)
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


def cache_key_from_dict(key_dict: dict, version: Optional[str] = None) -> str:
    """Content address of a spec's :meth:`RunSpec.key_dict` payload.

    The hash goes through :func:`repro.serialize.canonical_json`, so it
    is independent of dict insertion order — the order-sanitizer
    (:mod:`repro.sanitize.ordering`) checks exactly this property.
    """
    payload = {
        "spec": key_dict,
        "version": _PACKAGE_VERSION if version is None else version,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def spec_cache_key(spec: RunSpec, version: Optional[str] = None) -> str:
    """Content address of a spec: SHA-256 over canonical JSON + version."""
    return cache_key_from_dict(spec.key_dict(), version=version)


def cache_load(
    spec: RunSpec, directory: Optional[Union[str, Path]] = None
) -> Optional[RunSummary]:
    """Fetch a cached summary for *spec*, or ``None`` on a miss."""
    path = cache_dir(directory) / f"{spec_cache_key(spec)}.json"
    try:
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
        return RunSummary.from_dict(stored["summary"])
    except (OSError, KeyError, TypeError, ValueError):
        # Missing, concurrently-written or corrupt entries are misses.
        return None


def cache_store(
    spec: RunSpec,
    summary: RunSummary,
    directory: Optional[Union[str, Path]] = None,
) -> Path:
    """Persist *summary* under *spec*'s content address (atomically).

    An unusable cache directory (a file in the way, no permission) is a
    :class:`ConfigurationError` naming it, not a traceback.
    """
    root = cache_dir(directory)
    key = spec_cache_key(spec)
    path = root / f"{key}.json"
    payload = {
        "key": key,
        "version": _PACKAGE_VERSION,
        "spec": spec.key_dict(),
        "summary": summary.to_dict(),
    }
    tmp = root / f".{key}.{os.getpid()}.tmp"
    try:
        root.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)  # atomic: concurrent writers race benignly
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write the result cache under {str(root)!r} "
            f"({exc.strerror or exc}); set {CACHE_DIR_ENV} to a writable "
            f"directory or {CACHE_ENV}=off"
        ) from None
    return path


def clear_cache(directory: Optional[Union[str, Path]] = None) -> int:
    """Delete all cached summaries; returns the number removed."""
    root = cache_dir(directory)
    removed = 0
    if root.is_dir():
        for entry in sorted(root.glob("*.json")):
            with contextlib.suppress(OSError):
                entry.unlink()
                removed += 1
    return removed


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------

def _resolve_jobs(jobs: Optional[int]) -> int:
    """``None`` → serial; ``<= 0`` → one worker per core; else *jobs*."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_grid(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_directory: Optional[Union[str, Path]] = None,
) -> List[RunSummary]:
    """Execute every spec and return summaries in submission order.

    Parameters
    ----------
    specs:
        The runs to execute.
    jobs:
        ``None`` runs serially in-process; ``N > 1`` fans uncached runs
        over ``N`` spawn workers; ``0`` means one worker per core.
    cache:
        Force the cache on/off; ``None`` defers to ``REPRO_CACHE``.
    cache_directory:
        Override the cache location (default: ``REPRO_CACHE_DIR`` or
        ``./.repro-cache``).

    Serial and parallel execution produce bit-identical summaries: the
    simulator is fully seeded, workers are independent, and both paths
    round-trip through ``RunSummary.to_dict``/``from_dict``.
    """
    spec_list = list(specs)
    use_cache = cache_enabled() if cache is None else bool(cache)
    results: List[Optional[RunSummary]] = [None] * len(spec_list)

    missing: List[int] = []
    for index, spec in enumerate(spec_list):
        hit = cache_load(spec, cache_directory) if use_cache else None
        if hit is not None:
            # Label and scenario name are excluded from the cache key
            # (presentation only), so a hit may carry those of whichever
            # figure cached it first — restamp with the requesting spec's.
            results[index] = dataclasses.replace(
                hit, label=spec.display_label, scenario=spec.scenario.name
            )
        else:
            missing.append(index)

    workers = min(_resolve_jobs(jobs), max(len(missing), 1))
    if workers <= 1 or len(missing) <= 1:
        for index in missing:
            # Round-trip through the dict form so serial results are
            # bit-identical to what a worker would have shipped back.
            results[index] = RunSummary.from_dict(
                execute_spec(spec_list[index]).to_dict()
            )
    else:
        payloads = [(index, spec_list[index]) for index in missing]
        for index, data in spawn_map(_worker, payloads, workers):
            results[index] = RunSummary.from_dict(data)

    if use_cache:
        for index in missing:
            cache_store(spec_list[index], results[index], cache_directory)
    return results  # type: ignore[return-value]

