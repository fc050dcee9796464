"""The two ways ``verify.run_suite`` runs its flow check, as a fixture."""

import errno
import os
from types import SimpleNamespace

import pytest


@pytest.fixture(params=["worker", "in_process"])
def suite_path(request, monkeypatch) -> SimpleNamespace:
    """Run the suite's flow check in its forked worker, or in process.

    The worker path lets ``run_suite`` fork on a host of any CPU count; the
    in-process path makes ``os.fork`` raise OSError, as a process at its
    limit would.  ``forked`` tells which, and ``pids`` fills with the pid of
    each fork the suite makes.
    """
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    if request.param == "worker":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", counted)
    else:
        monkeypatch.setattr(os, "fork", refused)
    return SimpleNamespace(forked=request.param == "worker", pids=pids)
