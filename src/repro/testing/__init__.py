"""Test-support utilities shipped with the library.

:mod:`repro.testing.faults` is the fault-injection (chaos) harness: the
production code exposes named failure points which stay inert until a
test — or ``mck bench --inject-fault`` — arms them.
"""

from . import faults

__all__ = ["faults"]
