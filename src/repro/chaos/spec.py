"""Declarative, seeded infrastructure-chaos specifications.

:mod:`repro.faults` injects *device* faults into the simulated hardware;
this module is its infrastructure mirror: it injects *harness* faults —
torn writes, bit flips, ENOSPC, slow I/O, worker kills — into the real
processes that run and serve simulations.  A :class:`ChaosSpec` is a
seed plus a list of :class:`ChaosRule` entries naming an injection
*site* (a named hook compiled into the cache/journal/daemon write paths)
and a fault *kind*; the same spec always fires at the same occurrences,
so every chaos experiment is replayable and CI-gateable
(``tools/check_chaos.py``).

Specs round-trip through JSON and are activated either in-process
(:func:`repro.chaos.injector.activate`) or across process boundaries via
the ``REPRO_CHAOS`` environment variable (JSON text, or ``@path`` to a
spec file) — worker processes inherit the env, so a supervised pool can
be killed deterministically from the outside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..decode import decode
from ..errors import ReproError

#: Every fault kind the injector knows how to apply.
CHAOS_KINDS = ("torn_write", "bit_flip", "enospc", "slow_io", "worker_kill")

#: Every compiled-in injection site.
CHAOS_SITES = (
    "cache.object_write",
    "journal.append",
    "serve.report_write",
    "serve.execute",
    "worker.kill",
)

#: Which kinds make sense at which sites.  File-write sites accept the
#: data-corrupting and I/O kinds; ``serve.execute`` only slows down;
#: ``worker.kill`` only kills.
_SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    "cache.object_write": ("torn_write", "bit_flip", "enospc", "slow_io"),
    "journal.append": ("torn_write", "bit_flip", "enospc", "slow_io"),
    "serve.report_write": ("torn_write", "bit_flip", "enospc", "slow_io"),
    "serve.execute": ("slow_io",),
    "worker.kill": ("worker_kill",),
}


class ChaosSpecError(ReproError):
    """Raised for a malformed chaos specification."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosSpecError(message)


@dataclass(frozen=True)
class ChaosRule:
    """One injection rule: fire fault ``kind`` at site ``site``.

    A rule fires at the site's ``at`` occurrence indices (0-based, counted
    per process) and/or pseudo-randomly at ``1/one_in`` of occurrences
    (seeded — the same occurrences every run).  ``limit`` caps total
    firings per process; ``once`` caps firings *across* processes by
    claiming a marker file under the cache directory, which is how a
    worker-kill rule murders exactly one worker out of a pool instead of
    every respawned replacement.
    """

    site: str
    kind: str
    at: Tuple[int, ...] = ()
    one_in: int = 0
    limit: int = 0
    once: bool = False
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        _require(
            self.site in CHAOS_SITES,
            f"unknown chaos site {self.site!r} "
            f"(sites: {', '.join(CHAOS_SITES)})",
        )
        _require(
            self.kind in CHAOS_KINDS,
            f"unknown chaos kind {self.kind!r} "
            f"(kinds: {', '.join(CHAOS_KINDS)})",
        )
        _require(
            self.kind in _SITE_KINDS[self.site],
            f"kind {self.kind!r} cannot fire at site {self.site!r} "
            f"(allowed: {', '.join(_SITE_KINDS[self.site])})",
        )
        _require(
            all(n >= 0 for n in self.at),
            f"'at' must be non-negative occurrence indices, got {self.at!r}",
        )
        _require(
            self.one_in >= 0,
            f"'one_in' must be a non-negative integer, got {self.one_in!r}",
        )
        _require(
            bool(self.at) or self.one_in > 0,
            "rule must name 'at' occurrences and/or a 'one_in' rate",
        )
        _require(
            self.limit >= 0,
            f"'limit' must be a non-negative integer, got {self.limit!r}",
        )
        _require(
            self.delay_s >= 0,
            f"'delay_s' must be a non-negative number, got {self.delay_s!r}",
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "kind": self.kind,
            "at": list(self.at),
            "one_in": self.one_in,
            "limit": self.limit,
            "once": self.once,
            "delay_s": self.delay_s,
        }


@dataclass(frozen=True)
class ChaosSpec:
    """A seed plus rules — one deterministic chaos experiment."""

    seed: int = 0
    rules: Tuple[ChaosRule, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: object) -> "ChaosSpec":
        return decode(cls, data, ChaosSpecError, "chaos spec")

    @classmethod
    def from_json(cls, text: str) -> "ChaosSpec":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ChaosSpecError(f"chaos spec is not valid JSON: {exc}")
        return cls.from_dict(data)


def make_spec(seed: int, rules: Iterable[ChaosRule]) -> ChaosSpec:
    """Convenience constructor used by tests and ``tools/check_chaos.py``."""
    return ChaosSpec(seed=seed, rules=tuple(rules))
