"""Experiment E-F16 — paper Figure 16: mixed-workload co-running.

Six co-run cases pair a CNN model with a non-CNN model (LSTM / Word2vec,
section VI-F).  Under the paper's arrangement the CNN uses the full
heterogeneous system while the non-CNN model runs on the CPU and the
programmable PIM when they are idle.

Methodology (multi-tenant throughput): during one co-run window the CNN
executes one training step while the non-CNN model trains continuously
(``k`` of its steps, where ``k`` balances the two solo durations — the
natural rate ratio of the tenants).  *Sequential execution* time-shares the
machine: the same work takes the sum of the solo durations.  The reported
improvement is ``t_sequential / t_corun - 1``; the paper observes 69-83%.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import default_config
from ..nn.graph import Graph, merge_graphs
from ..runtime.scheduler import MixedWorkloadPolicy
from . import runner
from .common import cached_graph, model_job, run_points
from .report import TextTable, format_seconds

#: The six co-run cases.
PAIRS: Tuple[Tuple[str, str], ...] = (
    ("vgg-19", "lstm"),
    ("vgg-19", "word2vec"),
    ("resnet-50", "lstm"),
    ("resnet-50", "word2vec"),
    ("inception-v3", "lstm"),
    ("inception-v3", "word2vec"),
)


@dataclass(frozen=True)
class Fig16Case:
    cnn: str
    non_cnn: str
    non_cnn_steps_per_cnn_step: int
    solo_cnn_s: float
    solo_non_cnn_s: float
    corun_s: float
    sequential_s: float

    @property
    def improvement(self) -> float:
        """Speedup of co-running over sequential execution (paper: 69-83%)."""
        return self.sequential_s / self.corun_s - 1.0


def _replicated_non_cnn(non_cnn: str, replicas: int) -> Tuple[Graph, ...]:
    # the replicas only contribute their (renamed) tensor/op content to
    # merge_graphs, which copies everything it reads — shallow renamed
    # copies of one cached build avoid k rebuilds of the same model
    base = cached_graph(non_cnn)
    graphs = []
    for i in range(replicas):
        g = copy.copy(base)
        g.name = f"{non_cnn}#{i}"
        graphs.append(g)
    return tuple(graphs)


def _solo_restricted_job(non_cnn: str) -> runner.Job:
    """Solo run of the non-CNN model on CPU + programmable PIM only
    (the resource class the runtime assigns co-run tenants)."""
    graph = cached_graph(non_cnn)
    policy = MixedWorkloadPolicy(frozenset({graph.name}), restrict_untagged=True)
    return (graph, policy, default_config(), None)


#: Fraction of the idle-capacity rate the runtime grants the tenant; the
#: margin avoids head-of-line blocking of the primary model's CPU/prog work.
TENANT_LOAD_FACTOR = 0.8


def _corun_job(cnn: str, non_cnn: str, k: int) -> runner.Job:
    replicas = _replicated_non_cnn(non_cnn, k)
    restricted = frozenset(g.name for g in replicas)
    merged = merge_graphs(f"{cnn}+{k}x{non_cnn}", (cached_graph(cnn),) + replicas)
    return (merged, MixedWorkloadPolicy(restricted), default_config(), None)


def run(pairs: Tuple[Tuple[str, str], ...] = PAIRS) -> Dict[str, Fig16Case]:
    # Two stages: the tenant replica count k of each co-run case depends
    # on the solo step times, so the solos run first, then the merged
    # co-run simulations (the dominant cost) sized from them.
    cnns = tuple(dict.fromkeys(cnn for cnn, _ in pairs))
    nons = tuple(dict.fromkeys(non for _, non in pairs))
    solos = run_points(
        {("cnn", cnn): model_job(cnn, "hetero-pim") for cnn in cnns}
        | {("non", non): _solo_restricted_job(non) for non in nons}
    )
    solo_cnn = {cnn: solos["cnn", cnn].step_time_s for cnn in cnns}
    solo_non = {non: solos["non", non].step_time_s for non in nons}
    ks = {
        (cnn, non): max(
            1, round(TENANT_LOAD_FACTOR * solo_cnn[cnn] / solo_non[non])
        )
        for cnn, non in pairs
    }
    # the reported co-run number is the merged schedule's aggregate step
    # time, so the surrogate can answer it (the co-run jobs are part of
    # its training grid)
    coruns = run_points({pair: _corun_job(*pair, ks[pair]) for pair in pairs})
    return {
        f"{cnn}+{non}": Fig16Case(
            cnn=cnn,
            non_cnn=non,
            non_cnn_steps_per_cnn_step=ks[cnn, non],
            solo_cnn_s=solo_cnn[cnn],
            solo_non_cnn_s=solo_non[non],
            corun_s=coruns[cnn, non].step_time_s,
            sequential_s=solo_cnn[cnn] + ks[cnn, non] * solo_non[non],
        )
        for cnn, non in pairs
    }


def run_case(cnn: str, non_cnn: str) -> Fig16Case:
    """Simulate one co-run case."""
    return run(((cnn, non_cnn),))[f"{cnn}+{non_cnn}"]


def format_result(result: Dict[str, Fig16Case]) -> str:
    table = TextTable(
        ["Co-run case", "k", "Solo CNN", "Solo non-CNN", "Sequential",
         "Co-run", "Improvement"]
    )
    for name, case in result.items():
        table.add_row(
            name,
            case.non_cnn_steps_per_cnn_step,
            format_seconds(case.solo_cnn_s),
            format_seconds(case.solo_non_cnn_s),
            format_seconds(case.sequential_s),
            format_seconds(case.corun_s),
            f"{case.improvement * 100:+.0f}%",
        )
    return table.render()


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
