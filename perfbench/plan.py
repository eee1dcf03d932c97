"""Seeded workload plans and the summary statistics of the benchmark.

Nothing here imports ``repro``: the orchestrator and the tests use these
functions without the simulator on the path.  The seed decides only the
order of jobs, the fault-spec seeds and the serve request sequence; what a
workload contains never depends on it.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


#: The model zoo and the paper's five evaluated configurations.  Listed
#: here rather than read from ``repro.api`` so that a change adding a
#: model or configuration does not change what the benchmark measures.
ZOO_MODELS = (
    "alexnet", "dcgan", "embedrec", "gnn", "inception-v3",
    "lstm", "resnet-50", "transformer", "vgg-19", "word2vec",
)
CONFIGS = ("cpu", "gpu", "prog-pim", "fixed-pim", "hetero-pim")
STEPS = 3

#: Faulted runs: zoo models on hetero-pim, each under this many seeded
#: fault specs of this many events.  inception-v3 and lstm are left out:
#: their fault-free horizon runs alone would double each pass's set-up.
FAULT_MODELS = tuple(m for m in ZOO_MODELS if m not in ("inception-v3", "lstm"))
FAULT_SPECS_PER_MODEL = 8
FAULT_EVENTS = 4
FAULT_CONFIG = "hetero-pim"

#: Serve requests that are simulated when first seen: the zoo models whose
#: cold simulation takes well under 0.1 s, so one run collects hundreds of
#: cold samples, crossed with the five configurations and two step counts.
SERVE_MODELS = (
    "alexnet", "dcgan", "embedrec", "gnn", "transformer", "vgg-19", "word2vec",
)
SERVE_STEPS = (1, 2)
#: Store-served repeats sent per first-seen request.
SERVE_REPEATS_PER_COLD = 6


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def zoo_jobs(seed: int) -> List[Tuple[str, str]]:
    """(model, configuration) for every zoo job, in seeded order."""
    jobs = [(m, c) for m in ZOO_MODELS for c in CONFIGS]
    _rng("zoo", seed).shuffle(jobs)
    return jobs


def faulted_jobs(seed: int) -> List[Tuple[str, int]]:
    """(model, fault-spec seed) for every faulted job, in seeded order."""
    rng = _rng("faulted", seed)
    jobs = [
        (m, rng.randrange(2**31))
        for m in FAULT_MODELS
        for _ in range(FAULT_SPECS_PER_MODEL)
    ]
    rng.shuffle(jobs)
    return jobs


def serve_universe() -> List[Dict[str, object]]:
    """Every distinct serve request, in a fixed order."""
    return [
        {"model": m, "config": c, "steps": s}
        for m in SERVE_MODELS
        for c in CONFIGS
        for s in SERVE_STEPS
    ]


def serve_requests(seed: int) -> List[Tuple[str, int]]:
    """The serve request sequence as ``(kind, index into serve_universe())``.

    ``kind`` is ``"cold"`` for the first sight of a request and ``"warm"``
    for a repeat of a request that appears earlier in the sequence.  Every
    universe entry is sent cold exactly once.
    """
    rng = _rng("serve", seed)
    cold = list(range(len(serve_universe())))
    rng.shuffle(cold)
    kinds = ["cold"] * len(cold) + ["warm"] * (SERVE_REPEATS_PER_COLD * len(cold))
    rng.shuffle(kinds)
    first_cold = kinds.index("cold")
    kinds[0], kinds[first_cold] = kinds[first_cold], kinds[0]
    sequence: List[Tuple[str, int]] = []
    seen: List[int] = []
    for kind in kinds:
        if kind == "cold":
            seen.append(cold[len(seen)])
            sequence.append(("cold", seen[-1]))
        else:
            sequence.append(("warm", rng.choice(seen)))
    return sequence


PLANS = {"zoo": zoo_jobs, "faulted": faulted_jobs, "serve": serve_requests}
WORKLOADS = tuple(PLANS)


def plan(workload: str, seed: int):
    """The job or request list of ``workload`` for ``seed``."""
    return PLANS[workload](seed)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Linearly interpolated ``q``-quantile (``0 < q < 1``) of ``samples``.

    Returns None unless at least ten samples lie beyond the quantile, so a
    p99 needs 1000 samples and a p90 needs 100.
    """
    n = len(samples)
    if n * (1.0 - q) < 10 - 1e-9:
        return None
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def rate_from_medians(latencies_ms: Dict[object, List[float]]) -> float:
    """Items per second when each item takes its median latency.

    A throughput built from per-item medians over repeated measurements
    ignores the short bursts in which another tenant of a shared host
    slows every operation, where a total-time throughput counts them.
    """
    return len(latencies_ms) / sum(map(median, latencies_ms.values())) * 1e3


def pooled(samples: Sequence[Dict[object, List[float]]]) -> Dict[object, List[float]]:
    """Merge per-item sample lists."""
    out: Dict[object, List[float]] = {}
    for part in samples:
        for key, values in part.items():
            out.setdefault(key, []).extend(values)
    return out


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    its direct children cover (children never overlap their siblings)."""
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (
                child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    totals: Dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


def cold_rate(passes: Sequence[dict]) -> float:
    """Cold simulations per second of ``passes``, each job at its median
    latency over them."""
    return rate_from_medians(pooled(
        [{k: [v] for k, v in p["cold_ms"].items()} for p in passes]))


def trace_cost(plain: Sequence[dict], traced: Sequence[dict]) -> Dict[str, float]:
    """Tracing overhead and span coverage from untraced and traced passes.

    ``trace.overhead`` is traced over untraced time per cold job, minus
    one: positive when tracing slows the jobs down.  ``trace.coverage`` is
    the stage spans' time in a traced cold phase over the untraced cold
    phase's time.
    """
    untraced, traced_rate = cold_rate(plain), cold_rate(traced)
    jobs = len(plain[0]["cold_ms"])
    return {
        "trace.overhead": untraced / traced_rate - 1.0,
        "trace.coverage": median([p["cold_stage_s"] for p in traced])
        * untraced / jobs,
    }
