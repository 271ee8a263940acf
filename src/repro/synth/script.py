"""Synthesis scripts: scheduled AIG optimisation passes plus mapping.

The paper drives ABC with a custom script "comprising multiple refactor,
rewrite and balance commands".  :func:`optimize_aig` is our equivalent.  The
*which pass runs next* decision is delegated to a :class:`PassScheduler`
strategy:

* :class:`FixedScheduler` replays the named effort-level sequences
  (``fast``/``standard``/``high``) exactly as the pre-strategy code did —
  byte-identical trace and output, pinned by regression tests.
* :class:`AdaptiveScheduler` picks the next pass greedily from measured
  per-pass AND-count gain history — bandit-style credit per pass name,
  persisted across calls and processes via the ``REPRO_CACHE_DIR`` pattern
  shared with the synthesis disk cache.

:func:`synthesize` goes all the way from a multi-output function to a mapped
netlist and is the fitness kernel used by the pin-assignment search of
Phase II.  Every run feeds the module-level synthesis telemetry
(:func:`synthesis_telemetry`), the measurement layer the adaptive policies
read from.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from ..aig.aig import Aig
from ..aig.build import aig_from_function
from ..aig.opt import apply_pass, known_passes
from ..logic.boolfunc import BoolFunction
from ..netlist.library import CellLibrary, standard_cell_library
from ..netlist.netlist import Netlist
from ..obs import metrics as obs_metrics
from ..telemetry import RunTelemetry
from .mapper import map_to_cells

__all__ = [
    "SynthesisEffort",
    "SynthesisResult",
    "PassScheduler",
    "FixedScheduler",
    "AdaptiveScheduler",
    "SCHEDULER_NAMES",
    "resolve_scheduler",
    "optimize_aig",
    "synthesize",
    "synthesis_telemetry",
]

#: Named pass sequences, in increasing effort/runtime order.
_PASS_SEQUENCES: Dict[str, List[str]] = {
    # A single cheap cleanup: useful for tests and for very large sweeps.
    "fast": ["balance", "rewrite"],
    # The default: roughly ABC's resyn.
    "standard": ["balance", "rewrite", "refactor", "balance", "rewrite"],
    # Roughly resyn2 run twice, for final (post-GA) synthesis runs.
    "high": [
        "balance", "rewrite", "refactor", "balance", "rewrite",
        "rewrite-z", "balance", "refactor-z", "rewrite-z", "balance",
    ],
}

#: Scheduler names accepted by :func:`resolve_scheduler` and ``--scheduler``.
SCHEDULER_NAMES = ("fixed", "adaptive")


class SynthesisEffort:
    """Symbolic names for the supported effort levels."""

    FAST = "fast"
    STANDARD = "standard"
    HIGH = "high"

    @staticmethod
    def passes(effort: str) -> List[str]:
        """Return the pass names for an effort level."""
        try:
            return list(_PASS_SEQUENCES[effort])
        except KeyError as exc:
            raise ValueError(
                f"unknown synthesis effort {effort!r}; expected one of "
                f"{sorted(_PASS_SEQUENCES)}"
            ) from exc


# ---------------------------------------------------------------------------
# Module-level synthesis telemetry
# ---------------------------------------------------------------------------

_TELEMETRY = RunTelemetry(label="synth")


def synthesis_telemetry() -> RunTelemetry:
    """The live, process-wide synthesis telemetry record.

    Counters live in the ``synth`` scope: ``runs``, ``passes_scheduled``
    (every pass slot the scheduler emitted, including memo-reused ones),
    ``passes_executed`` (actual pass applications) and per-pass cumulative
    AND-count gains under ``gain.<pass>``.
    """
    return _TELEMETRY


@dataclass
class SynthesisResult:
    """Everything produced by a synthesis run."""

    aig: Aig
    netlist: Netlist
    area: float
    and_count: int
    pass_trace: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def pass_gains(self) -> List[Tuple[str, int]]:
        """Per-pass AND-count gains recovered from the trace.

        Entry ``(name, gain)`` means pass ``name`` removed ``gain`` AND nodes
        (negative: it grew the AIG, as zero-gain passes may).  The leading
        ``strash`` trace entry provides the baseline and is not reported.
        """
        gains: List[Tuple[str, int]] = []
        previous: Optional[int] = None
        for name, count in self.pass_trace:
            if previous is not None and name != "strash":
                gains.append((name, previous - count))
            previous = count
        return gains

    def __repr__(self) -> str:
        return (
            f"SynthesisResult(area={self.area:.2f} GE, ands={self.and_count}, "
            f"gates={self.netlist.num_instances()})"
        )


def _apply_pass(aig: Aig, pass_name: str) -> Aig:
    return apply_pass(aig, pass_name)


def _aig_structure_key(aig: Aig) -> Tuple:
    """A hashable key identifying the structure of a compacted AIG.

    Two AIGs with the same key have identical inputs, AND fanins and output
    literals, so every (deterministic, structure-driven) optimisation pass
    provably produces the same result on both.
    """
    return (
        aig.num_inputs,
        tuple(aig.fanins(node) for node in aig.and_nodes()),
        tuple(aig.outputs),
    )


# ---------------------------------------------------------------------------
# Scheduler strategies
# ---------------------------------------------------------------------------


class PassScheduler(ABC):
    """Strategy deciding which optimisation pass runs next.

    ``optimize`` owns the whole pass loop: it receives the input AIG and
    returns the best AIG found, appending ``(pass name, AND count)`` entries
    to ``trace`` exactly as the historic ``optimize_aig`` loop did.
    """

    #: Registry name; also the value accepted by ``--scheduler``.
    name: str = ""

    @abstractmethod
    def optimize(
        self, aig: Aig, trace: Optional[List[Tuple[str, int]]] = None
    ) -> Aig:
        """Run the pass loop on ``aig`` and return the best AIG seen."""


class FixedScheduler(PassScheduler):
    """The historic fixed-sequence loop, byte-identical to pre-strategy code.

    The effort-level sequence is repeated up to ``max_rounds`` times, stopping
    early when a full round makes no further progress.  The best AIG seen (by
    AND count) is returned.

    Per-pass fixed-point detection: every pass is a deterministic function of
    the AIG structure, so when a pass is about to run on the exact structure
    it already saw, the previous result is reused instead of re-running the
    pass.  In particular a pass known to leave a structure unchanged is
    skipped outright on that structure — the common case in the later rounds
    of a converged script.  The returned AIG (and the recorded trace) are
    identical to what the unmemoised loop would produce.
    """

    name = "fixed"

    def __init__(self, effort: str = "standard", max_rounds: int = 2) -> None:
        self.effort = effort
        self.passes = SynthesisEffort.passes(effort)
        self.max_rounds = max_rounds

    def optimize(
        self, aig: Aig, trace: Optional[List[Tuple[str, int]]] = None
    ) -> Aig:
        passes = self.passes
        best = aig.compact()
        if trace is not None:
            trace.append(("strash", best.num_ands))
        current = best
        current_key = _aig_structure_key(current)
        # pass name -> (input structure key, output AIG, output structure key)
        last_run: Dict[str, Tuple[Tuple, Aig, Tuple]] = {}
        _TELEMETRY.count("synth", "runs")
        for _ in range(self.max_rounds):
            round_start = best.num_ands
            for pass_name in passes:
                before = current.num_ands
                memo = last_run.get(pass_name)
                if memo is not None and memo[0] == current_key:
                    current, current_key = memo[1], memo[2]
                else:
                    current = _apply_pass(current, pass_name)
                    produced_key = _aig_structure_key(current)
                    last_run[pass_name] = (current_key, current, produced_key)
                    current_key = produced_key
                    _TELEMETRY.count("synth", "passes_executed")
                _TELEMETRY.count("synth", "passes_scheduled")
                _TELEMETRY.count("synth", f"gain.{pass_name}", before - current.num_ands)
                if trace is not None:
                    trace.append((pass_name, current.num_ands))
                if current.num_ands < best.num_ands:
                    best = current
            if best.num_ands >= round_start:
                break
        return best


class _PassCreditStore:
    """Persisted per-pass gain credit (the adaptive scheduler's memory).

    Keeps, per pass name, the number of applications and the cumulative
    *relative* AND-count gain (gain divided by pre-pass AND count, clamped at
    zero), so the mean credit is comparable across circuits of different
    sizes.  When a cache directory is configured (``REPRO_CACHE_DIR``), the
    credit survives across processes in ``pass_credit.json``; IO failures are
    silently tolerated — credit is an optimisation, never a correctness
    input.
    """

    FILENAME = "pass_credit.json"

    _shared: Dict[str, "_PassCreditStore"] = {}

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.credit: Dict[str, Dict[str, float]] = {}
        if path is not None:
            self._load()

    @classmethod
    def shared(cls, directory: Optional[str]) -> "_PassCreditStore":
        """One store per cache directory ('' keys the in-memory store)."""
        key = directory or ""
        store = cls._shared.get(key)
        if store is None:
            path = os.path.join(directory, cls.FILENAME) if directory else None
            store = cls(path)
            cls._shared[key] = store
        return store

    @classmethod
    def from_environment(cls) -> "_PassCreditStore":
        from ..ga.pinopt import CACHE_DIR_ENV_VAR

        return cls.shared(os.environ.get(CACHE_DIR_ENV_VAR) or None)

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict):
            return
        for name, entry in raw.items():
            if (
                isinstance(entry, dict)
                and isinstance(entry.get("calls"), (int, float))
                and isinstance(entry.get("gain"), (int, float))
            ):
                self.credit[str(name)] = {
                    "calls": float(entry["calls"]),
                    "gain": float(entry["gain"]),
                }

    def save(self) -> None:
        if self.path is None:
            return
        try:
            directory = os.path.dirname(self.path)
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.credit, handle, sort_keys=True)
            os.replace(temp_path, self.path)
        except OSError:
            pass

    def update(self, pass_name: str, gain: int, before: int) -> None:
        entry = self.credit.setdefault(pass_name, {"calls": 0.0, "gain": 0.0})
        entry["calls"] += 1
        entry["gain"] += max(gain, 0) / max(before, 1)

    def mean(self, pass_name: str) -> Optional[float]:
        entry = self.credit.get(pass_name)
        if not entry or entry["calls"] <= 0:
            return None
        return entry["gain"] / entry["calls"]


class AdaptiveScheduler(PassScheduler):
    """Credit-greedy pass scheduling from measured gain history.

    Arms are the registered pass names.  Selection is deterministic: untried
    arms first (optimistic initialisation, in registry order), then the arm
    with the highest mean relative gain (ties broken by registry order).  An
    arm observed to yield no gain on the current structure is retired *for
    that structure*.  The run ends when every arm is retired on the current
    structure, when ``stall_limit`` consecutive passes fail to improve the
    best AND count (the credit ordering front-loads the profitable passes,
    so a short stall means the gains have dried up), or when the hard pass
    budget is exhausted — so termination is guaranteed.
    """

    name = "adaptive"

    def __init__(
        self,
        max_passes: Optional[int] = None,
        credit: Optional[_PassCreditStore] = None,
        stall_limit: int = 2,
    ) -> None:
        self.arms = known_passes()
        # Budget comparable to the historic worst case: two rounds of "high".
        self.max_passes = max_passes if max_passes is not None else 2 * len(
            SynthesisEffort.passes(SynthesisEffort.HIGH)
        )
        self.stall_limit = stall_limit
        self._credit = credit if credit is not None else _PassCreditStore.from_environment()

    def _pick(self, candidates: List[str]) -> str:
        untried = [name for name in candidates if self._credit.mean(name) is None]
        if untried:
            return untried[0]
        return max(candidates, key=lambda name: (self._credit.mean(name), -candidates.index(name)))

    def optimize(
        self, aig: Aig, trace: Optional[List[Tuple[str, int]]] = None
    ) -> Aig:
        best = aig.compact()
        if trace is not None:
            trace.append(("strash", best.num_ands))
        current = best
        current_key = _aig_structure_key(current)
        retired: Dict[str, Set[Tuple]] = {name: set() for name in self.arms}
        _TELEMETRY.count("synth", "runs")
        passes_run = 0
        stalled = 0
        while passes_run < self.max_passes and stalled < self.stall_limit:
            candidates = [
                name for name in self.arms if current_key not in retired[name]
            ]
            if not candidates:
                break
            pass_name = self._pick(candidates)
            before = current.num_ands
            produced = _apply_pass(current, pass_name)
            produced_key = _aig_structure_key(produced)
            passes_run += 1
            gain = before - produced.num_ands
            self._credit.update(pass_name, gain, before)
            _TELEMETRY.count("synth", "passes_scheduled")
            _TELEMETRY.count("synth", "passes_executed")
            _TELEMETRY.count("synth", f"gain.{pass_name}", gain)
            if trace is not None:
                trace.append((pass_name, produced.num_ands))
            if gain <= 0:
                # No improvement on this structure: retire the arm for it.
                # Zero-gain restructuring passes may still move the search to
                # a new structure, which un-retires everything there.
                retired[pass_name].add(current_key)
            if produced_key != current_key:
                current, current_key = produced, produced_key
            if current.num_ands < best.num_ands:
                best = current
                stalled = 0
            else:
                stalled += 1
        self._credit.save()
        return best


def resolve_scheduler(
    scheduler: Union[None, str, PassScheduler] = None,
    effort: str = SynthesisEffort.STANDARD,
    max_rounds: int = 2,
) -> PassScheduler:
    """Resolve a scheduler argument to a strategy instance.

    ``scheduler`` may be a :class:`PassScheduler` (returned as-is), a name
    from :data:`SCHEDULER_NAMES`, or ``None`` for ``fixed``.  Schedulers are
    plumbed through worker-pool boundaries by name, so everything reachable
    from a campaign spec stays picklable.
    """
    if isinstance(scheduler, PassScheduler):
        return scheduler
    name = scheduler or "fixed"
    if name == "fixed":
        return FixedScheduler(effort=effort, max_rounds=max_rounds)
    if name == "adaptive":
        return AdaptiveScheduler()
    raise ValueError(
        f"unknown scheduler {name!r}; expected one of {sorted(SCHEDULER_NAMES)}"
    )


def optimize_aig(
    aig: Aig,
    effort: str = SynthesisEffort.STANDARD,
    max_rounds: int = 2,
    trace: Optional[List[Tuple[str, int]]] = None,
    scheduler: Union[None, str, PassScheduler] = None,
) -> Aig:
    """Optimise an AIG under the given scheduling strategy.

    With the default ``fixed`` scheduler this reproduces the historic
    behaviour byte-for-byte: the effort-level pass sequence repeated up to
    ``max_rounds`` times with early stopping and per-pass fixed-point
    memoisation.  Pass ``scheduler="adaptive"`` to let measured gain history
    drive pass selection instead.
    """
    return resolve_scheduler(scheduler, effort, max_rounds).optimize(aig, trace=trace)


def synthesize(
    function: BoolFunction,
    library: Optional[CellLibrary] = None,
    effort: str = SynthesisEffort.STANDARD,
    max_rounds: int = 2,
    name: Optional[str] = None,
    scheduler: Union[None, str, PassScheduler] = None,
) -> SynthesisResult:
    """Synthesise a multi-output function into a mapped standard-cell netlist."""
    library = library or standard_cell_library()
    began = time.monotonic()
    trace: List[Tuple[str, int]] = []
    initial = aig_from_function(function, name=name)
    optimized = optimize_aig(
        initial, effort=effort, max_rounds=max_rounds, trace=trace,
        scheduler=scheduler,
    )
    netlist = map_to_cells(optimized, library, name=name or function.name)
    obs_metrics.counter("repro_synth_runs_total", effort=str(effort))
    obs_metrics.observe("repro_synth_seconds", time.monotonic() - began)
    return SynthesisResult(
        aig=optimized,
        netlist=netlist,
        area=netlist.area(),
        and_count=optimized.num_ands,
        pass_trace=trace,
    )
