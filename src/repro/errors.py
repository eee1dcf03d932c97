"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed dataflow graphs (cycles, dangling tensors, ...)."""


class ShapeError(GraphError):
    """Raised when tensor shapes are inconsistent with an operation."""


class UnknownOpError(GraphError):
    """Raised when an operation type is not present in the op registry."""


class UnclassifiedOpError(ReproError):
    """Raised in strict classification when profiled op types have no
    flop-count entry (Figure 2 would silently bucket them as zero-flop).

    Attributes:
        op_types: The sorted tuple of unclassifiable op type names.
    """

    def __init__(self, op_types):
        self.op_types = tuple(sorted(op_types))
        names = ", ".join(self.op_types)
        super().__init__(
            f"cannot classify op types without flop counts: {names}; "
            "pass strict=False to classify them as CPU fallback"
        )


class HardwareConfigError(ReproError):
    """Raised for physically inconsistent hardware configurations."""


class BackendError(HardwareConfigError):
    """Raised by the hardware-backend registry (:mod:`repro.hardware.registry`)."""


class UnknownBackendError(BackendError):
    """Raised when a backend name is not registered.

    Carries the ``available`` names so CLIs can print them instead of a
    traceback (mirroring the missing-cache-state behavior).
    """

    def __init__(self, name: str, available=()):
        self.backend = name
        self.available = tuple(available)
        listing = ", ".join(self.available) if self.available else "none"
        super().__init__(
            f"unknown hardware backend {name!r} — registered backends: {listing}"
        )


class DuplicateBackendError(BackendError):
    """Raised when a backend name is registered twice.

    Re-registering a name would silently reroute every simulation keyed on
    it; plugins must pick a fresh name (or ``unregister`` first).
    """


class PlacementError(HardwareConfigError):
    """Raised when fixed-function PIM placement violates the bank budget."""


class SchedulingError(ReproError):
    """Raised when the runtime scheduler reaches an inconsistent state."""


class SimulationError(ReproError):
    """Raised by the discrete-event engine for invalid event sequences."""


class InvariantViolation(SimulationError):
    """Raised when a simulation breaks a conservation/consistency invariant.

    The runtime invariant checker (:mod:`repro.validate`) asserts
    accounting laws over every validated run — busy fractions in [0, 1],
    the occupancy histogram summing to the makespan, energy components
    summing to the total, dependence-ordered starts, quiescent devices at
    completion, cache/fresh equivalence.  A violation names the broken
    ``invariant`` and the offending ``subject`` (op uid, device lane or
    field) so the failure is actionable, not a bare assert.
    """

    def __init__(self, invariant: str, subject: str, detail: str):
        super().__init__(f"invariant {invariant!r} violated by {subject}: {detail}")
        self.invariant = invariant
        self.subject = subject
        self.detail = detail


class FidelityError(ReproError):
    """Raised when a run's numbers drift outside the paper's golden bands.

    The paper-fidelity gate (:mod:`repro.validate.golden`) compares
    measured speedup/energy ratios against the paper-reported values with
    explicit per-figure tolerances; ``repro validate`` and
    ``tools/check_fidelity.py`` raise this when any check fails.
    """


class ProgrammingModelError(ReproError):
    """Raised for misuse of the extended-OpenCL programming model objects."""


class KernelBuildError(ProgrammingModelError):
    """Raised when kernel binary generation (code extraction) fails."""


class ExecutionError(ReproError):
    """Raised by the experiment execution layer (supervised pool, journal).

    Distinct from :class:`SimulationError`: these errors concern the
    *harness* that runs batches of simulations — worker processes, job
    scheduling, journaling — never the simulated hardware itself.
    """


class JobTimeout(ExecutionError):
    """Raised (and recorded) when a job exceeds the per-job watchdog
    timeout (``REPRO_JOB_TIMEOUT``) on every allowed attempt."""


class PoisonJob(ExecutionError):
    """Raised after a supervised batch completes with quarantined jobs.

    The batch itself finishes — every healthy job's result is cached and
    journaled — and then this error reports the jobs that exhausted their
    retry budget.  ``failures`` holds one
    :class:`~repro.experiments.runner.JobFailure` per quarantined job
    (fingerprint, failure kind, last exception, attempt count).
    """

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class Interrupted(ExecutionError):
    """Raised when a batch is interrupted (SIGINT/SIGTERM).

    Completed results are already flushed to the cache and journal when
    this propagates; ``run_id`` (when a journal was active) names the
    journal to pass to ``repro resume``.
    """

    def __init__(self, message: str, run_id=None):
        super().__init__(message)
        self.run_id = run_id


class CorruptObjectError(ReproError):
    """Raised when a stored artifact fails its integrity check.

    Covers disk-cache objects, journal lines and stored serve reports:
    the bytes on disk do not parse, or do not match their embedded
    sha256 checksum.  Carries the offending ``path`` and a one-line
    ``reason``.  Readers never serve the bytes: the cache quarantines
    the object (a counted, recomputable miss) and ``repro cache fsck
    --repair`` recomputes it from its embedded metadata.
    """

    def __init__(self, path, reason: str, fingerprint=None):
        super().__init__(f"corrupt object {path}: {reason}")
        self.path = str(path)
        self.reason = reason
        self.fingerprint = fingerprint


class CorruptJournalError(ExecutionError):
    """Raised by a strict journal load when an interior line is damaged.

    The tolerant default loader merely *counts* damaged lines
    (``RunJournal.corrupt_lines``) — a dropped ``done`` line only costs a
    recompute on resume — but auditors (``repro cache fsck``) load
    strictly so mid-file corruption is surfaced, not skipped.
    """


class ServeError(ReproError):
    """Raised by the simulation-as-a-service layer (:mod:`repro.serve`)."""


class ProtocolError(ServeError):
    """Raised for a malformed or invalid service request.

    Carries the HTTP ``status`` the daemon should answer with (400 for
    bad bodies/fields, 404 for unknown resources, and so on).
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status
