"""Consecutive-failure circuit breaker with a cooldown-based half-open probe.

Shared by the parallel runtime (:mod:`repro.runtime.parbackend`), whose
breaker stops pool dispatch after repeated worker faults, and by the
analysis daemon (:mod:`repro.service.server`), whose breaker degrades
``execute`` requests to analysis-only replies during a fault storm.  The
class records state only; each caller logs its own transitions from the
return values of :meth:`CircuitBreaker.record_failure` and
:meth:`CircuitBreaker.record_success`.
"""

from __future__ import annotations

import time
from typing import Optional


class CircuitBreaker:
    """After ``threshold`` consecutive failures the breaker *opens* and
    :meth:`allows` returns False.  After ``cooldown_s`` it is *half-open*:
    calls are allowed through as probes; a success closes the breaker,
    another failure re-opens it for a fresh cooldown.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 30.0):
        self.threshold = max(1, int(threshold))
        self.cooldown_s = float(cooldown_s)
        self.failures = 0
        self.opened_at: Optional[float] = None

    def record_failure(self) -> bool:
        """Count one failure; True when this failure opened a closed breaker."""
        self.failures += 1
        if self.failures < self.threshold:
            return False
        newly = self.opened_at is None
        self.opened_at = time.monotonic()
        return newly

    def record_success(self) -> bool:
        """Reset the failure count; True when this success closed the breaker."""
        was_open = self.opened_at is not None
        self.failures = 0
        self.opened_at = None
        return was_open

    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if time.monotonic() - self.opened_at >= self.cooldown_s:
            return "half-open"
        return "open"

    def allows(self) -> bool:
        return self.state() != "open"
