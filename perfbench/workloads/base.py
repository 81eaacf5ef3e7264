"""What every workload provides to the runner in ``perfbench/run.py``."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..spans import Spans


class Window:
    """Outcome of one timed window.

    ``e2e`` holds the end-to-end metric values; ``notes`` are printed
    beside them.
    """

    def __init__(self, e2e: Dict[str, float],
                 notes: Dict[str, object]) -> None:
        self.e2e = e2e
        self.notes = notes


class Workload:
    """Set up from a seed, measure, instrument, check, close.

    ``attempted`` and ``failed`` count operations over every window: an
    exception, a timeout or (found by :meth:`check`) a wrong output
    fails one.
    """

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spans: Optional[Spans] = None
        self.attempted = 0
        self.failed = 0
        #: ``repr`` of each exception that failed an operation.
        self.errors: List[str] = []

    def setup(self) -> None:
        """Build inputs and the system, and warm it up (timed as setup_s)."""
        raise NotImplementedError

    def measure(self, seconds: float) -> Window:
        """Drive load for ``seconds``; spans are recorded once
        :meth:`instrument` has run."""
        raise NotImplementedError

    def instrument(self, spans: Spans) -> None:
        """Wrap the public calls this workload makes into each layer."""
        self.spans = spans

    def layers(self, window: Window) -> Dict[str, float]:
        """Per-layer metrics of a traced window, keyed by metric name."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Check every output so far, outside the timed windows.

        Adds each wrong operation to ``failed`` and returns one message
        per kind of mismatch (empty when everything is correct).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Stop every thread the workload started."""
