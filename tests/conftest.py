"""Every test here starts with SIGTERM's default action.

perfbench/run.py's `main` installs a SIGTERM handler that raises
SystemExit, and the benchmark's own tests call it in this process, so the
handler outlives them.  Pool workers forked after that inherit it, and
`Pool.terminate` then relies on a Python handler to end them: a worker that
takes the signal just before it blocks on the task queue's lock never runs
the handler and never exits, and the sweep hangs in its pool's teardown."""

import signal

import pytest


@pytest.fixture(autouse=True)
def default_sigterm():
    previous = signal.signal(signal.SIGTERM, signal.SIG_DFL)
    yield
    signal.signal(signal.SIGTERM, previous)
