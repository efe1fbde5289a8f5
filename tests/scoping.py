"""How the tests run code at another τ: scoped to the current context, as `cli.run_scenario` scopes a run's τ."""

from __future__ import annotations

from contextlib import contextmanager

from qworlds import qmat


@contextmanager
def scoped_tolerance(t: float):
    """Run the block at τ = t in the current context; the process default and other threads keep theirs."""
    token = qmat._scoped.set(qmat._checked_tolerance(t))
    try:
        yield
    finally:
        qmat._scoped.reset(token)
