#!/usr/bin/env python
"""Quickstart: train one AlexNet step on the heterogeneous PIM system.

Runs one model through :func:`repro.api.simulate`, the simulator's one
front door: binary generation, step-1 profiling, candidate selection and
dynamic scheduling all happen behind that call.  The script prints the
platform it simulates, the Figure-4 kernel binaries, the offload
decisions recorded on the report, and what the paper's evaluation would
report for this run.

Usage::

    python examples/quickstart.py [model]

``model`` defaults to ``alexnet``; any of the seven paper workloads works
(vgg-19, alexnet, dcgan, resnet-50, inception-v3, lstm, word2vec).
"""

import sys

from repro.api import cached_graph, list_models, simulate
from repro.config import default_config
from repro.pimcl import generate_binaries


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "alexnet"
    if model not in list_models():
        raise SystemExit(
            f"unknown model {model!r}; choose from {list_models()}"
        )

    print(f"Building one training step of {model} ...")
    graph = cached_graph(model)
    print(f"  {graph.num_ops} operations, batch size {graph.batch_size}, "
          f"dataset {graph.dataset}")

    cfg = default_config()
    print("\nPlatform (extended OpenCL mapping):")
    print(f"  {'host_cpu':16s} {cfg.cpu.cores:4d} cores")
    print(f"  {'fixed_pim':16s} {cfg.fixed_pim.n_units:4d} multiplier/adder "
          f"pairs over {cfg.stack.banks} banks")
    arm_cores = cfg.prog_pim.n_pims * cfg.prog_pim.cores_per_pim
    print(f"  {'prog_pim':16s} {arm_cores:4d} ARM cores")

    print("\nCompiling kernels (binary generation, paper Figure 4) ...")
    kernels = [generate_binaries(op) for op in graph.ops]
    n_pim = sum(1 for k in kernels if len(k.binaries) > 1)
    print(f"  {len(kernels)} kernels, {n_pim} with PIM binaries")

    print("\nTraining (profile -> select -> schedule -> simulate) ...")
    report = simulate(model, "hetero-pim")
    selection = report.selection
    print(f"  offload candidates: {selection['candidate_types']}")
    print(f"  selection covers {selection['time_coverage']:.0%} of step time "
          f"(target {selection['target_coverage']:.0%})")

    result = report.result
    b = result.step_breakdown
    print(f"\nPer-step results on {result.config_name}:")
    print(f"  step time          {result.step_time_s * 1e3:10.2f} ms")
    print(f"    operation        {b.operation_s * 1e3:10.2f} ms")
    print(f"    data movement    {b.data_movement_s * 1e3:10.2f} ms")
    print(f"    synchronization  {b.sync_s * 1e3:10.2f} ms")
    print(f"  dynamic energy     {result.step_dynamic_energy_j:10.2f} J")
    print(f"  average power      {result.average_power_w:10.1f} W")
    print(f"  fixed-PIM utilization {result.fixed_pim_utilization:7.0%}")


if __name__ == "__main__":
    main()
