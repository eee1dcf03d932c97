"""Extension studies beyond the paper's evaluation.

Two forward-looking questions the paper leaves open:

* **Multi-stack scaling** — the evaluation uses one memory stack; modern
  interposers carry several.  ``run_multistack`` scales the heterogeneous
  PIM to 1/2/4 stacks (each with its own 444 units and programmable PIM)
  and reports how far training throughput follows.
* **Training vs inference** — the paper's core argument is that *training*
  needs heterogeneity (complex backward operations dominate: ~2/3 of the
  FLOPs), while inference is mostly plain MAC work.  ``run_inference_contrast``
  strips the models to their forward pass and quantifies the contrast; one
  measured nuance is that pure-forward graphs are *more* sensitive to
  kernel-launch overheads (their fixed-function chains have no complex
  phases to hide launches behind), so recursive kernels matter for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..baselines import make_hetero_pim
from ..config import default_config
from ..nn.inference import backward_share, derive_inference_graph
from ..sim.results import RunResult
from . import runner
from .common import cached_graph
from .report import TextTable, format_seconds

STACK_COUNTS: Tuple[int, ...] = (1, 2, 4)


# ---------------------------------------------------------------------------
# multi-stack scaling
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MultiStackCell:
    n_stacks: int
    step_time_s: float
    speedup_vs_1: float
    dynamic_energy_j: float


def run_multistack(
    models: Tuple[str, ...] = ("vgg-19", "resnet-50"),
    stack_counts: Sequence[int] = STACK_COUNTS,
) -> Dict[str, Dict[int, MultiStackCell]]:
    jobs = []
    for model in models:
        for n in stack_counts:
            cfg, policy = make_hetero_pim(default_config().with_stacks(n))
            jobs.append((cached_graph(model), policy, cfg, None))
    fanned = runner.run_jobs(jobs)
    out: Dict[str, Dict[int, MultiStackCell]] = {}
    for i, model in enumerate(models):
        times: Dict[int, RunResult] = {
            n: fanned[i * len(stack_counts) + j]
            for j, n in enumerate(stack_counts)
        }
        base = times[stack_counts[0]].step_time_s
        out[model] = {
            n: MultiStackCell(
                n_stacks=n,
                step_time_s=r.step_time_s,
                speedup_vs_1=base / r.step_time_s,
                dynamic_energy_j=r.step_dynamic_energy_j,
            )
            for n, r in times.items()
        }
    return out


def format_multistack(result: Dict[str, Dict[int, MultiStackCell]]) -> str:
    table = TextTable(
        ["Model", "Stacks", "Step time", "Speedup vs 1", "E_dyn (J)"]
    )
    for model, row in result.items():
        for n, cell in row.items():
            table.add_row(
                model, n, format_seconds(cell.step_time_s),
                f"{cell.speedup_vs_1:.2f}x", cell.dynamic_energy_j,
            )
    return table.render()


# ---------------------------------------------------------------------------
# training vs inference
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class InferenceContrast:
    model: str
    backward_flop_share: float
    train_step_s: float
    infer_step_s: float
    train_rc_gain: float
    infer_rc_gain: float


def _rc_jobs(graph) -> Tuple[runner.Job, runner.Job]:
    """(RC+OP job, bare-hardware job) for one graph."""
    cfg_on, pol_on = make_hetero_pim(default_config())
    cfg_off, pol_off = make_hetero_pim(
        default_config(), recursive_kernels=False, operation_pipeline=False
    )
    return (graph, pol_on, cfg_on, None), (graph, pol_off, cfg_off, None)


def run_inference_contrast(
    models: Tuple[str, ...] = ("vgg-19", "alexnet", "dcgan"),
) -> Dict[str, InferenceContrast]:
    infer_graphs = {m: derive_inference_graph(cached_graph(m)) for m in models}
    results = runner.run_jobs(
        [
            job
            for m in models
            for g in (cached_graph(m), infer_graphs[m])
            for job in _rc_jobs(g)
        ]
    )

    def rc_gain(g: int) -> Tuple[float, float]:
        """(step time with RC+OP, RC+OP gain over bare hardware) of the
        ``g``-th graph."""
        on, off = results[2 * g], results[2 * g + 1]
        return on.step_time_s, off.step_time_s / on.step_time_s

    out: Dict[str, InferenceContrast] = {}
    for i, model in enumerate(models):
        train_s, train_gain = rc_gain(2 * i)
        infer_s, infer_gain = rc_gain(2 * i + 1)
        out[model] = InferenceContrast(
            model=model,
            backward_flop_share=backward_share(cached_graph(model)),
            train_step_s=train_s,
            infer_step_s=infer_s,
            train_rc_gain=train_gain,
            infer_rc_gain=infer_gain,
        )
    return out


def format_inference_contrast(result: Dict[str, InferenceContrast]) -> str:
    table = TextTable(
        ["Model", "Backward FLOP share", "Train step", "Infer step",
         "RC+OP gain (train)", "RC+OP gain (infer)"]
    )
    for model, row in result.items():
        table.add_row(
            model,
            f"{row.backward_flop_share:.0%}",
            format_seconds(row.train_step_s),
            format_seconds(row.infer_step_s),
            f"{row.train_rc_gain:.2f}x",
            f"{row.infer_rc_gain:.2f}x",
        )
    return table.render()


def main() -> str:
    text = (
        "== multi-stack scaling (extension) ==\n"
        + format_multistack(run_multistack())
        + "\n\n== training vs inference (extension) ==\n"
        + format_inference_contrast(run_inference_contrast())
    )
    print(text)
    return text


if __name__ == "__main__":
    main()
