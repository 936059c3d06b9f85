"""The fork runner of ``simulate``'s parallel runs, loaded only by them: a
process pool's import, start-up and shutdown cost several times these forks
(README, Performance).  The children of a CLI run inherit its frozen heap
(``cli.cli``): their collections skip the import-time objects, so they
neither traverse them nor write their pages."""
from __future__ import annotations

import contextlib
import os
import pickle
import signal


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


def fork_shares(run, shares, fold, out):
    """``out`` with ``out = fold(out, lo, run(lo, hi))`` done for each share in
    share order, each run in a child forked for it.  Each child is reaped and
    its result unpickled as soon as its pipe is read, so this process holds
    one pickle at a time.  A child's exception is raised here, and so is a
    RuntimeError for a child that ends without a result.  Every child is
    reaped, after a kill if this process raises or is interrupted first."""
    pids, pipes = [], []  # the children not yet reaped, and every pipe
    try:
        for lo, hi in shares:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as sink:  # the child's end, closed here once forked
                if (pid := os.fork()) == 0:
                    _child(run, lo, hi, sink)
            pids.append(pid)
        for (lo, hi), pipe in zip(shares, pipes):
            data = pipe.read()
            # reaped first: a child killed mid-write leaves bytes, not a result
            end = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if end or not data:  # a negative code is the signal that ended it
                raise RuntimeError(f"the child for share {lo}..{hi - 1} ended with code "
                                   f"{end} and no result")
            result, data = pickle.loads(data), None
            if isinstance(result, BaseException):
                raise result
            out = fold(out, lo, result)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:  # only when this process raised: kill what is left
            # a child reaped just before an interrupt is still listed: skip it
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return out
