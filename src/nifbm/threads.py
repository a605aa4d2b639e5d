"""Helper threads for drawing the components of a stage at once.

numpy releases the GIL in Generator.standard_normal and in its FFTs,
so components drawn from generators of their own, into buffers of
their own, run in parallel on helper threads.  The harness loads this
module with the first stage that has more than one component, so a
process that never draws one does not load it.
"""

from __future__ import annotations

import threading

__all__ = ["HelperThreads"]


class HelperThreads:
    """`count` helper threads for one stage, started on entering a
    `with` block and joined on leaving it, however it is left.

    run(tasks) calls tasks[0] in the caller and tasks[1 + i] on helper
    i, all at once, and returns their results in order once every task
    has returned.  An exception raised by a task is raised in the
    caller, after all tasks have ended: the caller's own first, else
    the first helper's.  Zero helpers start no thread."""

    def __init__(self, count: int):
        self._count = count
        self._helpers = []

    def __enter__(self):
        try:
            for _ in range(self._count):
                helper = _Helper()
                helper.thread.start()
                self._helpers.append(helper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        for helper in self._helpers:
            helper.submit(None)
        for helper in self._helpers:
            helper.thread.join()
        self._helpers.clear()

    def run(self, tasks) -> list:
        first, *rest = tasks
        if len(rest) != len(self._helpers):
            raise ValueError(f"{len(tasks)} tasks for {len(self._helpers)} helpers")
        for helper, task in zip(self._helpers, rest):
            helper.submit(task)
        try:
            outcomes = [(first(), None)]
        except BaseException as exc:
            outcomes = [(None, exc)]
        outcomes += [helper.outcome() for helper in self._helpers]
        for _, error in outcomes:
            if error is not None:
                raise error
        return [result for result, _ in outcomes]


class _Helper:
    """One thread that runs the tasks submitted to it one at a time
    until it is submitted None."""

    def __init__(self):
        self._task = self._outcome = None
        self._go = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        # a daemon, so that a helper left waiting cannot hold up exit
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def submit(self, task) -> None:
        self._task = task
        self._go.release()

    def outcome(self) -> tuple:
        """(result, None) or (None, exception) of the submitted task,
        once it has ended."""
        self._done.acquire()
        outcome, self._outcome = self._outcome, None
        return outcome

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            task = self._task
            if task is None:
                return
            try:
                self._outcome = (task(), None)
            except BaseException as exc:
                self._outcome = (None, exc)
            self._done.release()
