"""Transport/residency/pool rules over a lowered wave plan.

These rule families audit the :class:`~repro.analysis.dataflow.
TransportPlan` event stream -- the static mirror of what
:mod:`repro.host.shm`, :class:`~repro.host.scheduler.CallScheduler`,
and :class:`~repro.pool.pool.EnginePool` do at runtime:

* ``SHM00x`` -- shared-memory handle lifecycle: a source plane mutated
  while its handle is in flight, a result adopted after store close, a
  segment released twice or orphaned by a worker death.
* ``RES00x`` -- worker-cache residency: stale-by-generation hits,
  eviction horizons shorter than a wave's reuse distance.
* ``POOL00x`` -- placement and failover: RAW-dependent calls merged
  into one wave by a requeue policy, producer/consumer pairs split
  across boards by the simulated placement.

The runtime sanitizer (:mod:`repro.analysis.sanitize`) emits the same
rule ids from the live stack, so every verdict here is dynamically
falsifiable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .dataflow import PlanEvent, TransportPlan
from .diagnostics import Diagnostic
from .rules import _diag


def shm_rules(plan: TransportPlan) -> List[Diagnostic]:
    """SHM001-SHM003: handle and segment lifecycle over the plan."""
    findings: List[Diagnostic] = []
    # SHM001: within one wave, a plane both ships at generation g and
    # is (re)defined at a later generation -- the parent mutated the
    # source while a worker still holds the old handle's segment name.
    shipped: Dict[int, Dict[str, int]] = {}
    for event in plan.events:
        if event.kind == "ship":
            shipped.setdefault(event.wave, {})[event.plane] = \
                event.generation
        elif event.kind == "define":
            in_flight = shipped.get(event.wave, {})
            if (event.plane in in_flight
                    and event.generation > in_flight[event.plane]):
                findings.append(_diag(
                    "SHM001",
                    f"plane '{event.plane}' shipped at generation "
                    f"{in_flight[event.plane]} and redefined at "
                    f"generation {event.generation} inside wave "
                    f"{event.wave}: the in-flight handle now names "
                    f"mutated content",
                    step_index=event.step_index,
                    step_label=f"wave {event.wave}"))
    # SHM002: adopt events after the close event.
    closed = False
    for event in plan.events:
        if event.kind == "close":
            closed = True
        elif event.kind == "adopt" and closed:
            findings.append(_diag(
                "SHM002",
                f"result '{event.plane}'@g{event.generation} adopted "
                f"in wave {event.wave} after the plane store closed: "
                f"the parent attaches a segment the store already "
                f"tore down",
                step_index=event.step_index,
                step_label=f"wave {event.wave}"))
    # SHM003: every result segment a board ships must eventually be
    # adopted by the parent (adoption transfers release ownership); a
    # board that dies after compute orphans its results -- nobody will
    # ever release those segments.  An adopt matches the *latest*
    # unadopted result for its key, so a replayed wave's adoption
    # cannot mask the dead board's orphan.
    pending: Dict[Tuple[str, int, Optional[int]], List[PlanEvent]] = {}
    for event in plan.events:
        key = (event.plane, event.generation, event.step_index)
        if event.kind == "result":
            pending.setdefault(key, []).append(event)
        elif event.kind == "adopt" and pending.get(key):
            pending[key].pop()
    orphans = [event for results in pending.values()
               for event in results]
    for event in orphans:
        findings.append(_diag(
            "SHM003",
            f"result segment for '{event.plane}'@g{event.generation} "
            f"shipped from board {event.board} in wave {event.wave} "
            f"was never adopted: the worker died after compute and "
            f"the segment leaks (no owner left to release it)",
            step_index=event.step_index,
            step_label=f"wave {event.wave}"))
    return findings


def residency_rules(plan: TransportPlan) -> List[Diagnostic]:
    """RES001-RES002: worker-cache generation and horizon checks."""
    findings: List[Diagnostic] = []
    # RES001: a cache hit served at a generation below the one the
    # reading step needs -- only reachable when the modelled cache is
    # identity-keyed (generation_checks=False) or a failover left a
    # stale copy on another board.
    for event in plan.events:
        if event.kind != "hit" or event.want_generation is None:
            continue
        if event.generation < event.want_generation:
            findings.append(_diag(
                "RES001",
                f"board {event.board} cache served plane "
                f"'{event.plane}' at generation {event.generation} "
                f"where wave {event.wave} needs generation "
                f"{event.want_generation}: stale residency read",
                step_label=f"wave {event.wave}"))
    # RES002: a plane evicted and later re-shipped at the same
    # generation on the same board -- the cache horizon is shorter
    # than the plan's reuse distance, so the transport pays a
    # redundant round trip for unchanged content.
    evicted: Set[Tuple[int, str, int]] = set()
    for event in plan.events:
        key = (event.board, event.plane, event.generation)
        if event.kind == "evict":
            evicted.add(key)
        elif event.kind == "define":
            evicted.discard(key)
        elif event.kind == "ship" and key in evicted:
            evicted.discard(key)
            findings.append(_diag(
                "RES002",
                f"plane '{event.plane}'@g{event.generation} re-shipped "
                f"to board {event.board} in wave {event.wave} after "
                f"eviction: cache capacity "
                f"{plan.params.cache_capacity} is below this plan's "
                f"reuse distance",
                step_label=f"wave {event.wave}"))
    return findings


def pool_rules(plan: TransportPlan) -> List[Diagnostic]:
    """POOL001-POOL002: wave formation and actual placement."""
    findings: List[Diagnostic] = []
    # POOL001: one wave defines a plane generation and uses it -- a
    # requeue policy interleaved RAW-dependent steps, so the consumer
    # dispatches before its producer's result exists board-side.
    defined_in_wave: Dict[int, Set[Tuple[str, int]]] = {}
    for event in plan.events:
        if event.kind == "define":
            defined_in_wave.setdefault(event.wave, set()).add(
                (event.plane, event.generation))
    reported: Set[Tuple[int, str, int]] = set()
    for event in plan.events:
        if event.kind != "use":
            continue
        key = (event.plane, event.generation)
        mark = (event.wave, event.plane, event.generation)
        if (key in defined_in_wave.get(event.wave, set())
                and mark not in reported):
            reported.add(mark)
            findings.append(_diag(
                "POOL001",
                f"wave {event.wave} both defines and uses plane "
                f"'{event.plane}'@g{event.generation}: requeue policy "
                f"'{plan.params.requeue}' interleaved RAW-dependent "
                f"calls into one dispatch",
                step_index=event.step_index,
                step_label=f"wave {event.wave}"))
    # POOL002: the consuming board differs from the defining board --
    # placement split a producer/consumer pair, so the result must
    # reship across boards.
    defined_on: Dict[Tuple[str, int], Tuple[int, int]] = {}
    pool_reported: Set[Tuple[int, str, int]] = set()
    for event in plan.events:
        key = (event.plane, event.generation)
        if event.kind == "define":
            defined_on[key] = (event.board, event.wave)
        elif event.kind == "use" and key in defined_on:
            producer_board, producer_wave = defined_on[key]
            mark = (event.wave, event.plane, event.generation)
            if (producer_board != event.board
                    and mark not in pool_reported):
                pool_reported.add(mark)
                findings.append(_diag(
                    "POOL002",
                    f"plane '{event.plane}'@g{event.generation} "
                    f"produced on board {producer_board} (wave "
                    f"{producer_wave}) but consumed on board "
                    f"{event.board} (wave {event.wave}) under "
                    f"'{plan.params.placement}' placement: the result "
                    f"reships across boards instead of staying "
                    f"resident",
                    step_index=event.step_index,
                    step_label=f"wave {event.wave}"))
    return findings


def transport_rules(plan: TransportPlan) -> List[Diagnostic]:
    """All SHM/RES/POOL findings for one lowered plan, in rule order."""
    findings: List[Diagnostic] = []
    findings.extend(shm_rules(plan))
    findings.extend(residency_rules(plan))
    findings.extend(pool_rules(plan))
    return findings
