"""Run independent parts of one search side by side in forked processes."""

from __future__ import annotations

import os
import pickle


def usable_cpus() -> int:
    """CPUs this process may run on, or 1 where the platform cannot fork or report them."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _run_child(fn, part, r: int, w: int) -> None:
    """fn(part), or the exception it raised, pickled into the pipe's write end w; never returns.

    A result that cannot be pickled sends the pickling error; an exception that cannot, nothing.
    """
    try:
        os.close(r)
        try:
            payload = pickle.dumps((True, fn(part)))
        except BaseException as exc:  # the parent raises it again
            payload = pickle.dumps((False, exc))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)  # no cleanup of the parent's: not its atexit hooks, nor its stdio buffers


def fork_map(fn, parts: list):
    """Yield fn(part) for each part in order: the first part in this process, each other in a forked child.

    Each child sends back its result, or the exception it raised, through a
    pipe; the first exception in part order is raised here. If a fork fails,
    the parts not yet forked run here, last. Every child is killed and
    reaped when the generator finishes, raises or is closed, so a caller
    that stops early closes it (contextlib.closing) to end the rest.
    """
    children = []  # (pid, read end of its pipe), in part order
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _run_child(fn, part, r, w)
            children.append((pid, r))
            os.close(w)
        yield fn(parts[0])
        for pid, r in children:
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"worker {pid} exited without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            yield value
        for part in parts[1 + len(children) :]:
            yield fn(part)
    finally:
        if children:
            import signal  # only when a search forks, as most never do: signal builds enums on import
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
