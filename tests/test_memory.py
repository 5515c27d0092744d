"""Traced peak memory of the front end and the engine on a large model.

The model is the text of a 3·10⁴-state stutter chain.  ``tracemalloc``
counts the Python allocations made while it traces; each bound is a
multiple of the model that ``parse_ks`` returns (equal labels shared).
"""

import tracemalloc

import pytest

from stuttersim import RefinementEngine, parse_ks, serialize_ks

from conftest import stutter_chain

CHAIN_LENGTH = 3 * 10**4


def traced(fn):
    """``fn()``, the memory it leaves allocated and its traced peak."""
    tracemalloc.start()
    try:
        value = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, current, peak


@pytest.fixture(scope="module")
def parsed():
    """The parsed chain, the memory it holds and the parse's peak."""
    chain_text = serialize_ks(stutter_chain(CHAIN_LENGTH))
    return traced(lambda: parse_ks(chain_text))


def test_parse_peak_at_most_twice_the_model(parsed):
    """Only the line strings and one section's tokens live next to the
    model, and the lines go before the model is built."""
    k, model, peak = parsed
    assert k.num_states == CHAIN_LENGTH + 3
    assert peak <= 2 * model, (peak, model)


def test_parse_peak_near_the_model(parsed):
    """The parser fills the labels and successor lists line by line and
    builds no edge list or id table, so the line strings are all that
    lives next to the model as it grows."""
    k, model, peak = parsed
    assert peak <= 1.2 * model, (peak, model)


def test_model_holds_each_edge_once(parsed):
    """The model keeps the successor and predecessor lists and no list
    of edge tuples next to them."""
    k, model, _ = parsed
    assert model <= 280 * k.num_states, (model, k.num_states)


def test_engine_peak_above_the_model_under_four_fifths_of_it(parsed):
    """Nothing collapses on the chain, so the engine builds no per-state
    collapse tables and expands its result in one pass."""
    k, model, _ = parsed
    result, _, peak = traced(lambda: RefinementEngine(k).run())
    assert len(result.blocks) == 4
    assert peak <= 0.8 * model, (peak, model)
