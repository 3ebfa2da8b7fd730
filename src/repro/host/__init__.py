"""Host-side runtime: driver, engine backend, evaluation platforms."""

from ..analysis.diagnostics import ProgramCheckError
from .backend import EngineBackend
from .backend_v2 import EngineBackendV2
from .driver import (AddressEngineDriver, CallPrice, DriverResult,
                     FrameResidencyCache)
from .runtime import (RunReport, Runtime, engine_platform,
                      software_platform)
from .scheduler import BatchReport, CallScheduler
from .shm import SHARED_MEMORY_AVAILABLE, PlaneStore, frame_payload_bytes

__all__ = [
    "AddressEngineDriver",
    "BatchReport",
    "CallPrice",
    "CallScheduler",
    "DriverResult",
    "EngineBackend",
    "FrameResidencyCache",
    "EngineBackendV2",
    "PlaneStore",
    "ProgramCheckError",
    "SHARED_MEMORY_AVAILABLE",
    "frame_payload_bytes",
    "RunReport",
    "Runtime",
    "engine_platform",
    "software_platform",
]
