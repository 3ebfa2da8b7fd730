"""Multi-engine sharding: N modelled boards behind one dispatch API.

The paper runs one AddressEngine on the PCI bus; its outlook scales by
adding boards.  This package models that pool: each
:class:`EngineWorker` is one board with private driver books and
ZBT-bank residency, an :class:`EnginePool` routes micro-batched waves
onto them by one placement rule (most resident inputs, then the
earliest-free board), and results stay bit-exact with serial
submission for every pool size.
"""

from .pool import EnginePool, PoolReport, WaveDispatch
from .pricing import call_cost_seconds
from .worker import EngineWorker, WorkerReport

__all__ = [
    "EnginePool",
    "EngineWorker",
    "PoolReport",
    "WaveDispatch",
    "WorkerReport",
    "call_cost_seconds",
]
