"""Fixtures shared by the test modules."""

import threading

import pytest


@pytest.fixture
def started_threads(monkeypatch):
    """The threads started while the test runs, in start order."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    return started
