"""Property tests (hypothesis) on the decoder of outside JSON.

Each format starts from a valid document and takes one mutation at any
depth: a dropped field, an unknown field, a value of another JSON type,
or a list item replaced by a scalar.  Decoding must then either return a
value whose ``to_dict`` decodes back to it, or raise the format's own
error; no other exception may escape.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosRule, ChaosSpec, ChaosSpecError
from repro.errors import ProtocolError, SimulationError
from repro.faults import FaultSpec
from repro.serve.protocol import build_simulate_request

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=6,
)

CHAOS = ChaosSpec(
    seed=3,
    rules=(
        ChaosRule(site="journal.append", kind="torn_write", at=(0, 2), limit=1),
        ChaosRule(
            site="serve.execute", kind="slow_io", one_in=3, once=True, delay_s=0.01
        ),
    ),
).to_dict()

REQUEST = {
    "model": "alexnet",
    "config": "hetero-pim",
    "backend": "hmc-hetero",
    "steps": 2,
    "batch_size": 8,
    "frequency_scale": 1.5,
    "surrogate": False,
    "tenant": "team-a",
    "priority": 5,
    "wait": True,
}


def _json_type(value):
    return type(value).__name__


def _slots(doc):
    """Every (container, key) pair in ``doc``, at any depth."""
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield node, key
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])


@st.composite
def mutated(draw, base):
    """``base`` with one mutation applied somewhere in it."""
    doc = {"root": copy.deepcopy(base)}
    slots = list(_slots(doc))
    in_dicts = [(node, key) for node, key in slots if isinstance(node, dict)]
    fields = [(node, key) for node, key in in_dicts if node is not doc]
    in_lists = [(node, key) for node, key in slots if isinstance(node, list)]
    objects = [node[key] for node, key in slots if isinstance(node[key], dict)]
    mutations = ["add", "retype"] + ["drop"] * bool(fields)
    mutations += ["scalar-item"] * bool(in_lists)
    mutation = draw(st.sampled_from(mutations))
    if mutation == "drop":
        node, key = draw(st.sampled_from(fields))
        del node[key]
    elif mutation == "add":
        node = draw(st.sampled_from(objects))
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in node))
        node[key] = draw(VALUES)
    elif mutation == "retype":
        node, key = draw(st.sampled_from(slots))
        old = _json_type(node[key])
        node[key] = draw(VALUES.filter(lambda v: _json_type(v) != old))
    else:
        node, key = draw(st.sampled_from(in_lists))
        node[key] = draw(SCALARS)
    return doc["root"]


def _check(decode, document, error):
    try:
        value = decode(document)
    except error as exc:
        if isinstance(exc, ProtocolError):
            assert exc.status == 400
        return
    assert decode(value.to_dict()) == value


@st.composite
def fault_documents(draw):
    spec = FaultSpec.generate(
        seed=draw(st.integers(0, 1000)),
        horizon_s=0.05,
        n_events=draw(st.integers(1, 6)),
    )
    return draw(mutated(spec.to_dict()))


@given(document=fault_documents())
@settings(max_examples=200, deadline=None)
def test_mutated_fault_spec_decodes_or_raises_simulation_error(document):
    _check(FaultSpec.from_dict, document, SimulationError)


@given(document=mutated(CHAOS))
@settings(max_examples=200, deadline=None)
def test_mutated_chaos_spec_decodes_or_raises_chaos_spec_error(document):
    _check(ChaosSpec.from_dict, document, ChaosSpecError)


@given(document=mutated(REQUEST))
@settings(max_examples=200, deadline=None)
def test_mutated_request_decodes_or_raises_a_400(document):
    _check(lambda data: build_simulate_request(data, {}), document, ProtocolError)


@pytest.mark.parametrize(
    "decode, document",
    [
        (FaultSpec.from_dict, FaultSpec.generate(5, 0.05, 6).to_dict()),
        (ChaosSpec.from_dict, CHAOS),
        (lambda data: build_simulate_request(data, {}), REQUEST),
    ],
    ids=["fault", "chaos", "request"],
)
def test_valid_documents_round_trip(decode, document):
    """Every mutation above starts from a document the decoder accepts."""
    value = decode(document)
    assert value.to_dict() == document
