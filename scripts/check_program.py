"""``repro-check`` from a checkout: static-verify call programs.

Thin wrapper over :mod:`repro.analysis.cli` for environments where the
package is on ``PYTHONPATH`` but not installed (the entry point
``repro-check`` covers installed environments).

    PYTHONPATH=src python scripts/check_program.py              # all
    PYTHONPATH=src python scripts/check_program.py quickstart
    PYTHONPATH=src python scripts/check_program.py --selftest
    PYTHONPATH=src python scripts/check_program.py --sanitize-selftest
    PYTHONPATH=src python scripts/check_program.py --list-rules
"""
import sys

from repro.analysis.cli import main

if __name__ == "__main__":
    sys.exit(main())
