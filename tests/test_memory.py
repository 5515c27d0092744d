"""Traced peak memory of the front end and the engine on a large model.

The model is the text of a 3·10⁴-state stutter chain.  ``tracemalloc``
counts the Python allocations made while it traces; each bound is a
multiple of the model that ``parse_ks`` returns (equal labels shared).
"""

import contextlib
import tracemalloc

import pytest

from stuttersim import KripkeStructure, RefinementEngine, parse_ks, serialize_ks
from stuttersim.cli import cli_main

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


def test_parse_peak_near_the_model_with_distinct_labels():
    """A chain in which every state has its own label: the table from a
    line's atom text to its label holds an entry per state, and is freed
    after the label lines, before the model is built."""
    n = CHAIN_LENGTH
    chain = KripkeStructure(
        n, [(s, s + 1) for s in range(n - 1)], [[f"p{s}"] for s in range(n)]
    )
    chain_text = serialize_ks(chain)
    k, model, peak = traced(lambda: parse_ks(chain_text))
    assert len(set(k.labels)) == n
    assert peak <= 1.2 * model, (peak, model)


def test_model_holds_each_edge_once(parsed):
    """The model keeps the successor and predecessor lists and no list
    of edge tuples next to them."""
    k, model, _ = parsed
    assert model <= 280 * k.num_states, (model, k.num_states)


def test_engine_peak_above_the_model_under_three_fifths_of_it(parsed):
    """Nothing collapses on the chain, so the engine builds no per-state
    collapse tables and expands its result in one pass over its own
    ints; the reachability step marks found states one byte each."""
    k, model, _ = parsed
    result, _, peak = traced(lambda: RefinementEngine(k).run())
    assert len(result.blocks) == 4
    assert peak <= 0.6 * model, (peak, model)


class _Sink:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


def test_full_output_streams_in_bounded_memory(tmp_path):
    """``compute --full`` on a 10³-state chain writes ~10⁶ pair lines;
    they go out one state at a time, so the traced peak stays far below
    the output."""
    path = tmp_path / "chain.ks"
    path.write_text(serialize_ks(stutter_chain(1000)))
    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        code, _, peak = traced(lambda: cli_main(["compute", str(path), "--full"]))
    assert code == 0
    assert sink.size > 12 * 10**6
    assert peak <= sink.size / 10, (peak, sink.size)


def test_compute_peak_under_eight_fifths_of_the_model(parsed, tmp_path):
    """``compute --emit all`` on the chain, to a stdout that keeps
    nothing: the file text, the model and the engine's tables are what
    peak, and a block line is formatted without a string per member."""
    k, model, _ = parsed
    path = tmp_path / "chain.ks"
    path.write_text(serialize_ks(k))
    with contextlib.redirect_stdout(_Sink()):
        code, _, peak = traced(lambda: cli_main(["compute", str(path), "--emit", "all"]))
    assert code == 0
    assert peak <= 1.6 * model, (peak, model)
