#!/usr/bin/env python
"""Bring your own model: build a custom network and train it on hetero PIM.

Demonstrates the public graph-building API: a small residual CNN is
assembled with :class:`~repro.nn.layers.GraphBuilder`, the backward pass
and optimizer ops are generated automatically, and the built graph goes
straight into :func:`repro.api.simulate`, the same front door the paper's
models use.

Usage::

    python examples/custom_model.py
"""

from repro.api import simulate
from repro.nn.layers import GraphBuilder


def build_tiny_resnet(batch_size: int = 16):
    """An 8-layer residual CNN over CIFAR-shaped inputs."""
    b = GraphBuilder("tiny-resnet", batch_size=batch_size, dataset="cifar-10")
    x = b.input((batch_size, 32, 32, 3))
    x = b.conv2d(x, 32, (3, 3), name="stem")

    for i, channels in enumerate((32, 64)):
        stride = 1 if channels == x.shape[-1] else 2
        shortcut = x
        if stride != 1 or x.shape[-1] != channels:
            shortcut = b.conv2d(
                x, channels, (1, 1), stride=(stride, stride),
                activation=None, name=f"block{i}/proj",
            )
        h = b.conv2d(x, channels, (3, 3), stride=(stride, stride),
                     name=f"block{i}/conv1")
        h = b.conv2d(h, channels, (3, 3), activation=None,
                     name=f"block{i}/conv2")
        h = b.add(h, shortcut, name=f"block{i}/residual")
        x = b.relu(h, name=f"block{i}/out")

    x = b.avg_pool(x, (x.shape[1], x.shape[2]), (1, 1), name="gap")
    x = b.flatten(x)
    x = b.dense(x, 10, activation=None, name="logits")
    b.softmax_loss(x, 10)
    print(f"model has {b.num_parameters() / 1e3:.0f}k trainable parameters")
    return b.finish()


def main() -> None:
    graph = build_tiny_resnet()
    print(f"graph: {graph.num_ops} ops "
          f"({dict(graph.invocation_counts().most_common(5))} ...)\n")

    report = simulate(graph, "hetero-pim")
    result = report.result
    print(f"step time on Hetero PIM: {result.step_time_s * 1e3:.3f} ms")
    print(f"dynamic energy:          {result.step_dynamic_energy_j * 1e3:.1f} mJ")
    print(f"fixed-PIM utilization:   {result.fixed_pim_utilization:.0%}")
    print(f"offloaded op types:      {report.selection['candidate_types']}")


if __name__ == "__main__":
    main()
