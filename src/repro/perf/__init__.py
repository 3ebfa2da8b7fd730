"""Performance models: CPU cost, engine timing, memory accounting.

These models turn the functional substrates into the numbers the paper's
evaluation section reports: Table 2 (memory accesses), Table 3 (GME wall
times) and the section 4.1 bandwidth/overlap claims.
"""

from .cpu_model import (DEFAULT_CPI, CpuModel, PENTIUM_4_3000,
                        PENTIUM_M_1600)
from .latency import LatencyTracker, percentile
from .metrics import (best_segment_match, dice, iou, mae, mse, psnr,
                      segment_iou)
from .memory_accounting import (MemoryAccessRow, PAPER_TABLE2,
                                hardware_accesses, table2_rows)
from .report import (REPORT_SCHEMA_KEYS, base_report_dict, call_log_rows,
                     format_seconds, format_table, ratio_line,
                     write_call_log_csv)
from .timing import EngineTimingModel, list_scheduled_makespan

__all__ = [
    "CpuModel",
    "DEFAULT_CPI",
    "EngineTimingModel",
    "REPORT_SCHEMA_KEYS",
    "base_report_dict",
    "list_scheduled_makespan",
    "LatencyTracker",
    "MemoryAccessRow",
    "best_segment_match",
    "dice",
    "iou",
    "mae",
    "mse",
    "psnr",
    "segment_iou",
    "PAPER_TABLE2",
    "PENTIUM_4_3000",
    "PENTIUM_M_1600",
    "call_log_rows",
    "format_seconds",
    "format_table",
    "hardware_accesses",
    "percentile",
    "ratio_line",
    "table2_rows",
    "write_call_log_csv",
]
