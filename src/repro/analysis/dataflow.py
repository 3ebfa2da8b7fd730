"""Transport/residency dataflow IR: a wave plan as an event stream.

The per-step rules (:mod:`repro.analysis.rules`) and the chain rules
(:mod:`repro.analysis.hazards`) see a :class:`CallProgram` as issued;
nothing sees what the *serving stack does with it* -- how the scheduler
groups steps into waves, which board a wave lands on, which frames ship
as shared-memory handles versus hit a worker-resident cache, and what a
mid-wave board failure does to all of the above.  This module lowers a
program plus a :class:`TransportParams` deployment description into
that view: a flat, ordered stream of :class:`PlanEvent`\\ s -- frame
defs and uses carrying *generation* versions, handle ship/adopt events,
per-board residency hits and evictions -- that the rule families in
:mod:`repro.analysis.transport` (``SHM00x``/``RES00x``/``POOL00x``)
check without touching a real store, cache, or pool.

The default lowering mirrors the healthy runtime exactly (waves from
:func:`~repro.addresslib.program.dependency_levels`, whole-wave
placement, generation-checked worker caches, whole-wave replay on
failover), so a clean program lowers to a clean plan.  The knobs model
deployments and failure modes worth auditing before they happen: a
board dying before or after compute, a requeue policy that *merges*
the failed wave into the next one, a residency cache too small for a
wave's reuse distance, an identity-keyed cache with no generation
check, or a store torn down while results are still in flight.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..addresslib.program import CallProgram, dependency_levels

#: Event kinds a lowered plan may contain, in the vocabulary of the
#: shared-memory transport (:mod:`repro.host.shm`) and the pool
#: (:mod:`repro.pool.pool`).
EVENT_KINDS = ("wave", "ship", "hit", "evict", "use", "compute",
               "define", "result", "adopt", "release", "close",
               "requeue")

#: Simulated placements :func:`lower_program` understands: the pool's
#: rule (``"affinity"``) and two what-ifs that ignore residency.
PLACEMENTS = ("affinity", "least_loaded", "round_robin")

#: What a failed board managed to do before dying.
FAIL_PHASES = ("before_compute", "after_compute")

#: How the pool reschedules a failed wave.
REQUEUE_POLICIES = ("replay", "merge")


@dataclass(frozen=True)
class TransportParams:
    """The deployment a program's wave plan is lowered against.

    The defaults describe the healthy runtime; every non-default value
    is a *what-if* (an eviction horizon, a failure injection, a buggy
    requeue policy) the transport rules then audit.
    """

    #: Modelled boards the waves place across.
    boards: int = 1
    #: Simulated placement: ``"affinity"`` mirrors
    #: :meth:`repro.pool.pool.EnginePool.place` (most resident inputs,
    #: then the least-loaded board); ``"least_loaded"`` and
    #: ``"round_robin"`` are what-ifs that ignore residency.
    placement: str = "affinity"
    #: Per-board residency-cache capacity, in cached frames (mirrors
    #: the worker cache of :mod:`repro.host.shm`).
    cache_capacity: int = 128
    #: Wave index at which the chosen board fails over; ``None`` for a
    #: healthy run.  Needs ``boards >= 2`` (someone must survive).
    fail_wave: Optional[int] = None
    #: Whether the failed board died before or after computing (an
    #: ``after_compute`` death orphans its shipped result segments).
    fail_phase: str = "before_compute"
    #: Requeue policy after the failure: ``"replay"`` re-runs the wave
    #: whole (the pool's real contract); ``"merge"`` coalesces it with
    #: the next wave -- the buggy shortcut POOL001/SHM001 exist to catch.
    requeue: str = "replay"
    #: Close the plane store after this wave (``None``: at program
    #: end); later adoptions model a teardown race (SHM002).
    close_after_wave: Optional[int] = None
    #: Whether the modelled residency cache compares generations on a
    #: hit (the shm worker cache does; an identity-keyed cache like a
    #: bare ``FrameResidencyCache`` does not -- RES001 territory).
    generation_checks: bool = True

    def __post_init__(self) -> None:
        if self.boards < 1:
            raise ValueError(f"boards must be >= 1, got {self.boards}")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}; "
                             f"one of {', '.join(PLACEMENTS)}")
        if self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got "
                             f"{self.cache_capacity}")
        if self.fail_phase not in FAIL_PHASES:
            raise ValueError(f"unknown fail_phase {self.fail_phase!r}")
        if self.requeue not in REQUEUE_POLICIES:
            raise ValueError(f"unknown requeue {self.requeue!r}")
        if self.fail_wave is not None and self.boards < 2:
            raise ValueError("fail_wave needs boards >= 2: a failover "
                             "must have a survivor to requeue onto")


@dataclass(frozen=True)
class PlanEvent:
    """One thing the lowered schedule does, in order.

    ``generation`` versions the plane's *content*: external inputs and
    first definitions are generation 0, every redefinition bumps it --
    the static mirror of :class:`repro.host.shm.FrameHandle.generation`.
    ``want_generation`` is set on ``hit`` events to the generation the
    read actually needs (a hit at a lower generation is a stale read).
    """

    kind: str
    wave: int
    #: Board the event happened on; ``-1`` for parent-side events.
    board: int = -1
    plane: str = ""
    generation: int = 0
    step_index: Optional[int] = None
    #: On ``hit`` events: the generation the consuming step needs.
    want_generation: Optional[int] = None

    def describe(self) -> str:
        where = f"board {self.board}" if self.board >= 0 else "parent"
        plane = f" {self.plane}@g{self.generation}" if self.plane else ""
        return f"wave {self.wave} [{where}] {self.kind}{plane}"


@dataclass(frozen=True)
class TransportPlan:
    """A lowered wave schedule: the event stream plus its shape."""

    program_name: str
    params: TransportParams
    #: Step indices per wave, after any failover restructuring.
    waves: Tuple[Tuple[int, ...], ...]
    events: Tuple[PlanEvent, ...]


@dataclass
class _Board:
    """Residency state of one modelled board during lowering."""

    board_id: int
    #: LRU cache: key -> cached generation.  With generation checks the
    #: key is ``(plane, generation)``; without, the bare plane name.
    cache: "OrderedDict[object, int]" = field(default_factory=OrderedDict)
    computes: int = 0
    alive: bool = True


def _plane_generations(program: CallProgram
                       ) -> Tuple[List[Tuple[int, ...]], List[Optional[int]]]:
    """Per-step read generations and write generation, program order.

    The recorder's SSA naming keeps every plane at generation 0;
    hand-built programs that redefine a plane (WAW) bump it -- exactly
    when the shared-memory store would cut a new segment.
    """
    current: Dict[str, int] = {name: 0 for name in program.inputs}
    read_gens: List[Tuple[int, ...]] = []
    write_gens: List[Optional[int]] = []
    for step in program.steps:
        read_gens.append(tuple(current.get(name, 0)
                               for name in step.inputs))
        if step.output is None:
            write_gens.append(None)
        else:
            if step.output in current:
                current[step.output] += 1
            else:
                current[step.output] = 0
            write_gens.append(current[step.output])
    return read_gens, write_gens


def _choose_board(boards: List[_Board], params: TransportParams,
                  wave_reads: List[Tuple[str, int]],
                  rr_counter: List[int]) -> _Board:
    """The simulated placement decision for one wave."""
    alive = [b for b in boards if b.alive]
    assert alive, "lowering never kills the last board"
    if params.placement == "round_robin":
        board = alive[rr_counter[0] % len(alive)]
        rr_counter[0] += 1
        return board
    if params.placement == "least_loaded":
        return min(alive, key=lambda b: (b.computes, b.board_id))

    def score(board: _Board) -> int:
        hits = 0
        for plane, gen in wave_reads:
            key = (plane, gen) if params.generation_checks else plane
            if key in board.cache:
                hits += 1
        return hits

    return min(alive, key=lambda b: (-score(b), b.computes, b.board_id))


def lower_program(program: CallProgram,
                  params: Optional[TransportParams] = None
                  ) -> TransportPlan:
    """Lower ``program`` into the wave-plan event stream it would run as.

    Deterministic: same program and params, same plan.  The healthy
    defaults produce a plan the transport rules pass clean whenever the
    program itself is clean; the failure knobs restructure the schedule
    the way the modelled fault would.
    """
    params = params or TransportParams()
    read_gens, write_gens = _plane_generations(program)
    waves: List[List[int]] = [list(level)
                              for level in dependency_levels(program)]
    boards = [_Board(i) for i in range(params.boards)]
    rr_counter = [0]
    events: List[PlanEvent] = []
    final_waves: List[Tuple[int, ...]] = []
    store_closed = False

    def run_wave(wave_index: int, step_indices: List[int],
                 board: _Board, adopt_results: bool) -> None:
        """Emit one wave's ship/hit/use/compute/define/result events."""
        # Ship phase: every distinct (plane, generation) read by the
        # wave moves (or hits) once, like the store registering each
        # frame once per wave.
        seen: List[Tuple[str, int]] = []
        for index in step_indices:
            step = program.steps[index]
            for plane, gen in zip(step.inputs, read_gens[index]):
                if (plane, gen) not in seen:
                    seen.append((plane, gen))
        for plane, gen in seen:
            key = (plane, gen) if params.generation_checks else plane
            if key in board.cache:
                cached_gen = board.cache[key]
                board.cache.move_to_end(key)
                events.append(PlanEvent(
                    kind="hit", wave=wave_index, board=board.board_id,
                    plane=plane, generation=cached_gen,
                    want_generation=gen))
                continue
            events.append(PlanEvent(
                kind="ship", wave=wave_index, board=board.board_id,
                plane=plane, generation=gen))
            board.cache[key] = gen
            while len(board.cache) > params.cache_capacity:
                evicted_key, evicted_gen = board.cache.popitem(last=False)
                evicted_plane = (evicted_key[0]
                                 if isinstance(evicted_key, tuple)
                                 else str(evicted_key))
                events.append(PlanEvent(
                    kind="evict", wave=wave_index, board=board.board_id,
                    plane=evicted_plane, generation=evicted_gen))
        # Compute phase: per-step use/compute/define, then the result
        # segment shipped back to the parent.
        for index in step_indices:
            step = program.steps[index]
            for plane, gen in zip(step.inputs, read_gens[index]):
                events.append(PlanEvent(
                    kind="use", wave=wave_index, board=board.board_id,
                    plane=plane, generation=gen, step_index=index))
            events.append(PlanEvent(
                kind="compute", wave=wave_index, board=board.board_id,
                step_index=index))
            board.computes += 1
            if step.output is None:
                continue
            write_gen = write_gens[index]
            assert write_gen is not None
            events.append(PlanEvent(
                kind="define", wave=wave_index, board=board.board_id,
                plane=step.output, generation=write_gen,
                step_index=index))
            key = ((step.output, write_gen) if params.generation_checks
                   else step.output)
            board.cache[key] = write_gen
            events.append(PlanEvent(
                kind="result", wave=wave_index, board=board.board_id,
                plane=step.output, generation=write_gen,
                step_index=index))
            if adopt_results:
                events.append(PlanEvent(
                    kind="adopt", wave=wave_index, board=-1,
                    plane=step.output, generation=write_gen,
                    step_index=index))

    wave_index = 0
    while wave_index < len(waves):
        step_indices = waves[wave_index]
        wave_reads = [(plane, gen)
                      for index in step_indices
                      for plane, gen in zip(program.steps[index].inputs,
                                            read_gens[index])]
        board = _choose_board(boards, params, wave_reads, rr_counter)
        if params.fail_wave == wave_index and board.alive:
            if params.fail_phase == "after_compute":
                # The board ran the wave and shipped its results, then
                # died before the parent adopted them: the segments are
                # orphaned (no adopt, no release) and the wave replays.
                run_wave(wave_index, step_indices, board,
                         adopt_results=False)
            board.alive = False
            events.append(PlanEvent(
                kind="requeue", wave=wave_index, board=board.board_id))
            if (params.requeue == "merge"
                    and wave_index + 1 < len(waves)):
                # The buggy shortcut: the failed wave coalesces with
                # the next one, interleaving dependent steps.
                waves[wave_index] = step_indices + waves[wave_index + 1]
                del waves[wave_index + 1]
                step_indices = waves[wave_index]
            survivor_reads = [(plane, gen)
                              for index in step_indices
                              for plane, gen in zip(
                                  program.steps[index].inputs,
                                  read_gens[index])]
            board = _choose_board(boards, params, survivor_reads,
                                  rr_counter)
        events.append(PlanEvent(kind="wave", wave=wave_index,
                                board=board.board_id))
        # Adoption is always attempted -- the live adopt_slab() reports
        # every adoption before it checks the store, and an adoption
        # after close is exactly what SHM002 audits.
        run_wave(wave_index, step_indices, board, adopt_results=True)
        final_waves.append(tuple(step_indices))
        if (params.close_after_wave is not None and not store_closed
                and wave_index >= params.close_after_wave):
            events.append(PlanEvent(kind="close", wave=wave_index))
            store_closed = True
        wave_index += 1

    if not store_closed:
        events.append(PlanEvent(kind="close",
                                wave=max(0, len(waves) - 1)))
    return TransportPlan(program_name=program.name, params=params,
                         waves=tuple(final_waves), events=tuple(events))
