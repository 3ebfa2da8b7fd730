"""Call-program introspection: what a chain of AddressLib calls *is*.

The static analyzer (:mod:`repro.analysis`) needs to see a program --
every call, its operation, format and dataflow -- without simulating a
single engine cycle.  This module provides that view:

* :class:`ProgramStep` -- one AddressLib call as pure data (mode, op,
  format, input/output plane names, source location);
* :class:`CallProgram` -- an ordered chain of steps with named external
  inputs and results;
* :class:`ProgramRecorder` -- a :class:`~repro.addresslib.library.Backend`
  that executes calls on the software path *and* records each one as a
  step, so any existing composition (``opening``, ``motion_mask``, ...)
  can be traced by running it once against a recording library;
* :func:`trace_program` -- the one-call wrapper around the recorder.

Nothing here imports :mod:`repro.core`: the step is plain data, and the
analyzer (which imports both sides) turns steps into
:class:`~repro.core.config.EngineConfig` objects when it checks them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..image.formats import ImageFormat
from ..image.frame import Frame
from .addressing import AddressingMode
from .library import (Backend, BatchCall, CallRecord, RecordedResult,
                      SoftwareBackend)
from .ops import ChannelSet, InterOp, IntraOp

#: Module basenames whose stack frames are library plumbing, not the
#: program under analysis; the recorder skips them when attributing a
#: step to a source location so that e.g. ``compositions.py:119`` or the
#: user's script surfaces instead.
_PLUMBING_FILES = ("library.py", "program.py")


@dataclass(frozen=True)
class SourceLocation:
    """Where a step was issued from (best effort, may be unknown)."""

    filename: str
    line: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}"


@dataclass(frozen=True)
class ProgramStep:
    """One AddressLib call as pure data.

    ``inputs`` and ``output`` are *plane names*: opaque labels that tie
    the dataflow together ("in0" for the program's first external input,
    "t3" for the temporary produced by step 3).  The analyzer's hazard
    rules reason over these names only.
    """

    index: int
    mode: AddressingMode
    op: Union[InterOp, IntraOp]
    fmt: ImageFormat
    channels: ChannelSet
    inputs: Tuple[str, ...]
    output: Optional[str]
    reduce_to_scalar: bool = False
    requires_full_frames: bool = False
    #: Per-input flags claiming the plane is already resident in ZBT
    #: from the previous call (call chaining); ``None`` means no claim.
    resident: Optional[Tuple[bool, ...]] = None
    label: str = ""
    location: Optional[SourceLocation] = None

    @property
    def describe(self) -> str:
        """Human-oriented one-liner ("step 2: intra ERODE_CON8 on t1")."""
        target = f" -> {self.output}" if self.output else " -> scalar"
        return (f"step {self.index}: {self.mode.value} {self.op.name}"
                f"({', '.join(self.inputs)}){target}")


@dataclass(frozen=True)
class CallProgram:
    """An ordered chain of AddressLib calls over named planes."""

    name: str
    fmt: ImageFormat
    inputs: Tuple[str, ...]
    steps: Tuple[ProgramStep, ...]
    results: Tuple[str, ...] = ()

    @classmethod
    def single(cls, config: "object", name: str = "call",
               resident: Optional[Sequence[bool]] = None) -> "CallProgram":
        """Wrap one :class:`~repro.core.config.EngineConfig`-shaped call.

        ``config`` is duck-typed (mode, op, fmt, channels,
        reduce_to_scalar, requires_full_frames, images_in) so this module
        stays free of a ``repro.core`` import.
        """
        images_in: int = config.images_in  # type: ignore[attr-defined]
        inputs = tuple(f"in{i}" for i in range(images_in))
        reduce_to_scalar = bool(
            config.reduce_to_scalar)  # type: ignore[attr-defined]
        output = None if reduce_to_scalar else "out"
        step = ProgramStep(
            index=0,
            mode=config.mode,  # type: ignore[attr-defined]
            op=config.op,  # type: ignore[attr-defined]
            fmt=config.fmt,  # type: ignore[attr-defined]
            channels=config.channels,  # type: ignore[attr-defined]
            inputs=inputs,
            output=output,
            reduce_to_scalar=reduce_to_scalar,
            requires_full_frames=bool(
                config.requires_full_frames),  # type: ignore[attr-defined]
            resident=tuple(resident) if resident is not None else None,
            label=name)
        return cls(name=name, fmt=step.fmt, inputs=inputs, steps=(step,),
                   results=(output,) if output else ())


# ---------------------------------------------------------------------------
# Dependency structure (what the pipelined scheduler is allowed to reorder)
# ---------------------------------------------------------------------------

def dependency_edges(program: CallProgram) -> List[Tuple[int, int]]:
    """Ordering constraints between steps, as ``(before, after)`` pairs.

    Three hazard kinds force an edge, matching classic dataflow:

    * **RAW** -- a step reads a plane the last writer produced;
    * **WAW** -- a step overwrites a plane an earlier step wrote;
    * **WAR** -- a step overwrites a plane earlier steps read (possible
      only in hand-built programs; the recorder's SSA temp naming never
      reuses a plane name).

    Steps not connected by a path may execute concurrently: their
    inputs and outputs are disjoint planes, so any interleaving of the
    underlying calls produces bit-identical results.
    """
    last_writer: Dict[str, int] = {}
    readers: Dict[str, List[int]] = {}
    edges = set()
    for step in program.steps:
        for name in step.inputs:
            writer = last_writer.get(name)
            if writer is not None and writer != step.index:
                edges.add((writer, step.index))
        if step.output is not None:
            writer = last_writer.get(step.output)
            if writer is not None and writer != step.index:
                edges.add((writer, step.index))
            for reader in readers.get(step.output, ()):
                if reader != step.index:
                    edges.add((reader, step.index))
            last_writer[step.output] = step.index
            readers[step.output] = []
        for name in step.inputs:
            readers.setdefault(name, []).append(step.index)
    return sorted(edges)


def dependency_levels(program: CallProgram) -> List[List[int]]:
    """ASAP wavefronts: lists of step indices, in program order, where
    every step's predecessors sit in strictly earlier lists.

    All steps inside one wavefront are mutually independent: the shape
    of the program's own parallelism (SCH001 reads it).  No scheduler
    runs programs by wavefront; the call scheduler runs batches whose
    caller declares them independent.
    """
    predecessors: Dict[int, List[int]] = {}
    for before, after in dependency_edges(program):
        predecessors.setdefault(after, []).append(before)
    level_of: Dict[int, int] = {}
    levels: List[List[int]] = []
    for step in program.steps:
        preds = predecessors.get(step.index, [])
        level = 1 + max((level_of[p] for p in preds), default=-1)
        level_of[step.index] = level
        while len(levels) <= level:
            levels.append([])
        levels[level].append(step.index)
    return levels


def critical_path_length(program: CallProgram) -> int:
    """Length (in calls) of the longest dependency chain."""
    if not program.steps:
        return 0
    return len(dependency_levels(program))


def exploitable_parallelism(program: CallProgram) -> float:
    """Average calls per wavefront: ``steps / critical path``.

    1.0 means the program serialises completely -- the scheduler can
    give it no concurrency; the rule layer flags that case (SCH001).
    """
    path = critical_path_length(program)
    if path == 0:
        return 1.0
    return len(program.steps) / path


def _issue_location() -> Optional[SourceLocation]:
    """The nearest stack frame outside the AddressLib plumbing."""
    depth = 1
    while True:
        try:
            frame = sys._getframe(depth)
        except ValueError:
            return None
        filename = frame.f_code.co_filename
        if not filename.endswith(_PLUMBING_FILES):
            return SourceLocation(filename=filename,
                                  line=frame.f_lineno)
        depth += 1


class ProgramRecorder(Backend):
    """A backend that executes calls in software *and* records them.

    Frames are identified by object identity: the recorder keeps a
    strong reference to every frame it has named, so a temporary that
    one stage produces and a later stage consumes resolves to the same
    plane name even though the composition never names it.
    """

    name = "recorder"

    def __init__(self, inputs: Sequence[Frame],
                 input_names: Optional[Sequence[str]] = None) -> None:
        self._delegate = SoftwareBackend()
        self._names: Dict[int, str] = {}
        self._pinned: List[Frame] = []
        self._temp_count = 0
        self.steps: List[ProgramStep] = []
        names = (tuple(input_names) if input_names is not None
                 else tuple(f"in{i}" for i in range(len(inputs))))
        if len(names) != len(inputs):
            raise ValueError("one name per input frame required")
        self.input_names = names
        for frame, name_ in zip(inputs, names):
            self._pin(frame, name_)

    def _pin(self, frame: Frame, name_: str) -> None:
        self._names[id(frame)] = name_
        self._pinned.append(frame)

    def _name_of(self, frame: Frame) -> str:
        try:
            return self._names[id(frame)]
        except KeyError:
            # A frame the program materialised outside AddressLib (e.g.
            # ``temporal_smooth``'s first copy): treat as a fresh input.
            name_ = f"ext{len(self._pinned)}"
            self._pin(frame, name_)
            return name_

    def _record(self, mode: AddressingMode, op: Union[InterOp, IntraOp],
                fmt: ImageFormat, channels: ChannelSet,
                inputs: Tuple[str, ...], result: Optional[Frame],
                reduce_to_scalar: bool = False) -> None:
        output: Optional[str] = None
        if result is not None:
            output = f"t{self._temp_count}"
            self._temp_count += 1
            self._pin(result, output)
        self.steps.append(ProgramStep(
            index=len(self.steps), mode=mode, op=op, fmt=fmt,
            channels=channels, inputs=inputs, output=output,
            reduce_to_scalar=reduce_to_scalar,
            location=_issue_location()))

    # -- Backend interface --------------------------------------------------

    def supports(self, mode: AddressingMode) -> bool:
        return mode in (AddressingMode.INTER, AddressingMode.INTRA)

    def run_wave(self, calls: Sequence[BatchCall]) -> List[RecordedResult]:
        outcomes = self._delegate.run_wave(calls)
        for call, (result, _) in zip(calls, outcomes):
            names = tuple(self._name_of(frame) for frame in call.frames)
            self._record(call.mode, call.op, call.fmt, call.channels,
                         names,
                         None if call.reduce_to_scalar else result,
                         reduce_to_scalar=call.reduce_to_scalar)
        return outcomes

    def inter(self, op: InterOp, frame_a: Frame, frame_b: Frame,
              channels: ChannelSet) -> Tuple[Frame, CallRecord]:
        names = (self._name_of(frame_a), self._name_of(frame_b))
        result, record = self._delegate.inter(op, frame_a, frame_b,
                                              channels)
        self._record(AddressingMode.INTER, op, frame_a.format, channels,
                     names, result)
        return result, record

    def intra(self, op: IntraOp, frame: Frame,
              channels: ChannelSet) -> Tuple[Frame, CallRecord]:
        names = (self._name_of(frame),)
        result, record = self._delegate.intra(op, frame, channels)
        self._record(AddressingMode.INTRA, op, frame.format, channels,
                     names, result)
        return result, record

    def inter_reduce(self, op: InterOp, frame_a: Frame, frame_b: Frame,
                     channels: ChannelSet) -> Tuple[int, CallRecord]:
        names = (self._name_of(frame_a), self._name_of(frame_b))
        value, record = self._delegate.inter_reduce(op, frame_a, frame_b,
                                                    channels)
        self._record(AddressingMode.INTER, op, frame_a.format, channels,
                     names, None, reduce_to_scalar=True)
        return value, record

    # -- program assembly ---------------------------------------------------

    def program(self, name: str,
                results: Sequence[Frame] = ()) -> CallProgram:
        """Freeze the recorded steps into a :class:`CallProgram`."""
        if not self.steps:
            raise ValueError("no AddressLib calls were recorded")
        result_names = tuple(self._name_of(frame) for frame in results)
        return CallProgram(name=name, fmt=self.steps[0].fmt,
                           inputs=self.input_names,
                           steps=tuple(self.steps), results=result_names)


def trace_program(name: str, fn: Callable[..., object],
                  *frames: Frame, **kwargs: object) -> CallProgram:
    """Run ``fn(lib, *frames, **kwargs)`` against a recording library.

    ``fn`` is any composition-shaped callable taking an
    :class:`~repro.addresslib.library.AddressLib` first.  The calls it
    issues (on the software path, so the trace is cheap) become the
    returned :class:`CallProgram`; if ``fn`` returns a frame (or a
    sequence of frames) those become the program's named results.
    """
    from .library import AddressLib

    recorder = ProgramRecorder(frames)
    lib = AddressLib(backend=recorder)
    returned = fn(lib, *frames, **kwargs)
    results: Tuple[Frame, ...]
    if isinstance(returned, Frame):
        results = (returned,)
    elif isinstance(returned, (list, tuple)):
        results = tuple(f for f in returned if isinstance(f, Frame))
    else:
        results = ()
    return recorder.program(name, results)
