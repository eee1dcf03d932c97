"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded around calls into the program's public entry points,
from the benchmark's side, and written out once the run ends.  Each span
has a name, start and end (``time.perf_counter`` seconds), the id of the
span that was open when it started, and the job or request id it belongs
to.  One recorder serves one thread.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, job: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "job": job,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
