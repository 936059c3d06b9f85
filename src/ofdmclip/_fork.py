"""The fork runner of ``simulate``'s parallel runs, loaded only by them: a
process pool's import, start-up and shutdown cost several times these forks
(README, Performance).  The children of a CLI run inherit its frozen heap
(``cli.cli``): their collections skip the import-time objects, so they
neither traverse them nor write their pages."""
from __future__ import annotations

import os
import pickle


def _child(run, lo, hi, sink):
    """A forked child's whole life: ``run(lo, hi)`` or the exception it raised,
    pickled into ``sink``, then ``os._exit``: 0 once it is sent, else 1."""
    try:
        try:
            data = pickle.dumps(run(lo, hi))
        except Exception as exc:
            try:  # some exceptions pickle but do not unpickle
                data = pickle.dumps(exc)
                pickle.loads(data)
            except Exception:
                data = pickle.dumps(RuntimeError(repr(exc)))
        sink.write(data)
        sink.flush()
        os._exit(0)
    finally:
        os._exit(1)


def fork_shares(run, shares) -> list:
    """The lists ``run(lo, hi)`` of ``shares`` in share order, each share run
    in a child forked for it.  A child's exception is raised here, and so is
    a RuntimeError for a child that ends without a result.  Every child is
    reaped, after a kill if this process raises or is interrupted first."""
    pids, pipes = [], []
    try:
        for lo, hi in shares:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as sink:  # the child's end, closed here once forked
                if (pid := os.fork()) == 0:
                    _child(run, lo, hi, sink)
            pids.append(pid)
        sent = [pipe.read() for pipe in pipes]
    except BaseException:
        import signal
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        ends = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    out = []
    for (lo, hi), data, end in zip(shares, sent, ends):
        if end or not data:  # a negative code is the signal that ended it
            raise RuntimeError(f"the child for share {lo}..{hi - 1} ended with code {end} "
                               "and no result")
        result = pickle.loads(data)
        if isinstance(result, BaseException):
            raise result
        out += result
    return out
