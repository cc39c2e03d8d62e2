"""Shared helpers for the serving tests."""

from __future__ import annotations

import time


def wait_until(predicate, timeout=15.0, interval=0.05):
    """Poll ``predicate`` until true or the deadline passes (no fixed sleeps)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()
