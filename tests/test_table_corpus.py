"""Pinned corpus of per-op cost tables.

``golden/table_corpus.json`` maps every registered backend configuration x
zoo model x frequency scale {1, 2, 4} to the sha256 of the ``repr`` of
each cost-table column and plan row, keyed by op name in graph order.
The engine corpus only covers the table entries its runs read; this pins
every entry, including the ``est`` values the surrogate's features read
for every placement.  ``repr`` keeps float bits and value types, so a
float that becomes an int (or flips the sign of a zero) fails here too.
Regenerate the map only for an intended behavioural change:

    PYTHONPATH=src python tests/test_table_corpus.py --write
"""

import functools
import hashlib
import json
import pathlib
import sys

import pytest

from repro.config import default_config
from repro.hardware import registry
from repro.nn.models import ALL_MODELS, build_model
from repro.sim.optable import _build

CORPUS = pathlib.Path(__file__).parent / "golden" / "table_corpus.json"

SCALES = (1.0, 2.0, 4.0)
PLACES = ("cpu", "gpu", "prog", "fixed", "hybrid", "hybrid_host")
#: Per-op columns, in digest order.
COLUMNS = (
    "allowed", "cpu", "gpu_total", "prog", "gang", "fixed_plan",
    "hybrid_plan", "host_complex",
)


def _variants():
    """``(backend, configuration)`` for every registered configuration."""
    return [
        (backend, configuration)
        for backend in registry.list_backends()
        for configuration in registry.get(backend).configurations
    ]


@functools.lru_cache(maxsize=None)
def _graph(model):
    return build_model(model)


def _table(backend, configuration, model, scale):
    base = default_config().with_frequency_scale(scale)
    config, policy = registry.build(backend, configuration, base)
    graph = _graph(model)
    policy.prepare(graph, config)
    return graph, _build(graph, policy, config)


def _digest(graph, table):
    """The digest of the per-op values, in the layout of the per-op
    columns the corpus was first written from: an op's ``fixed_plan`` is
    listed only when its placements include ``"fixed"``, its
    ``hybrid_plan`` only with a hybrid placement (a row is shared by every
    op of its content and holds a plan once any of them is placed on the
    pool)."""
    h = hashlib.sha256()
    ops = list(graph.ops)
    for i, place in enumerate(PLACES):
        h.update(place.encode())
        for op in ops:
            value = table.entries[id(op)][0].est[i]
            h.update(repr((op.name, value)).encode())
    for name in COLUMNS:
        h.update(name.encode())
        for op in ops:
            row, places, _, allowed = table.entries[id(op)]
            if name == "allowed":
                value = allowed
            elif name == "fixed_plan" and "fixed" not in places:
                value = None
            elif name == "hybrid_plan" and not (
                "hybrid" in places or "hybrid_host" in places
            ):
                value = None
            else:
                value = getattr(row, name)
            h.update(repr((op.name, value)).encode())
    h.update(repr(("staging_s", table.staging_s)).encode())
    return h.hexdigest()


def _entries():
    return {
        f"{backend}/{configuration}/{model}/x{scale:g}": (
            backend, configuration, model, scale,
        )
        for backend, configuration in _variants()
        for model in ALL_MODELS
        for scale in SCALES
    }


ENTRIES = _entries()


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_entry(corpus):
    assert sorted(corpus) == sorted(ENTRIES)


@pytest.mark.parametrize("key", list(ENTRIES))
def test_pinned_table(corpus, key):
    assert _digest(*_table(*ENTRIES[key])) == corpus[key], (
        f"{key}: the cost table's entries changed"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    CORPUS.write_text(
        json.dumps(
            {key: _digest(*_table(*args)) for key, args in ENTRIES.items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(ENTRIES)} digests to {CORPUS}")
