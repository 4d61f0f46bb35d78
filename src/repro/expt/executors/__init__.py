"""Pluggable sweep executors: serial, local-procs, socket.

Each executor lives in its own module; the local-procs and socket
executors are imported by :func:`make_executor` when a sweep selects
them.  Local-procs is a socket master with forked localhost workers.

``exptools.execute`` drives any of these through the same four calls
(``configure`` / ``submit`` / ``drain`` / ``close``); see
:mod:`repro.expt.executors.base` for the contract and
``docs/exptools.md`` for the deployment recipes.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.expt.executors.base import Executor
from repro.expt.executors.serial import SerialExecutor

__all__ = ["EXECUTOR_NAMES", "make_executor"]

#: the executor names, in documentation order; drives CLI choices and
#: ``make_executor`` validation
EXECUTOR_NAMES = ("serial", "local-procs", "socket")


def make_executor(
    name: str,
    *,
    workers: int = 1,
    bind: str | None = None,
    lease_timeout: float = 300.0,
    max_requeues: int = 2,
    verbose: bool = False,
) -> Executor:
    """Build an executor from its CLI name.

    ``workers`` is the number of forked local-procs workers; ``bind``
    ("host:port") is the socket master's listen address (default
    ``127.0.0.1:0``, an ephemeral port printed when ``verbose``).
    """
    if name == "serial":
        return SerialExecutor()
    if name == "local-procs":
        from repro.expt.executors.localprocs import LocalProcsExecutor

        return LocalProcsExecutor(workers, lease_timeout=lease_timeout,
                                  max_requeues=max_requeues, verbose=verbose)
    if name == "socket":
        from repro.expt.executors.socketexec import SocketExecutor, parse_address

        host, port = parse_address(bind) if bind else ("127.0.0.1", 0)
        return SocketExecutor(
            host, port,
            lease_timeout=lease_timeout,
            max_requeues=max_requeues,
            verbose=verbose,
        )
    raise ConfigError(
        f"unknown executor {name!r} (valid: {', '.join(EXECUTOR_NAMES)})"
    )
