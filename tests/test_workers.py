"""scored_roots in forked workers: the same scores, bytes and choices as a serial run.

Every test checks that no child outlives the call it made.
"""

import contextlib
import marshal
import math
import os
import random
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmat import errors, trees
from clmat.cli import main
from clmat.metrics import CLMAT, EDGE_MIN, NODE_MIN, RESIDUAL
from clmat.selection import FIRST_MIN, MIN_DEPTH, select_aggregator
from clmat.simulator import RadioModel
from clmat.topology import export_json, load_topology
from clmat.trees import build_all_candidates

from graphgen import spanning_topologies, tie_heavy_graph

TX_ENERGY = RadioModel(1e-3, 1e-6, 2, 5e-4).tx_energy


@contextlib.contextmanager
def usable_cpus(count, chunk_work=None):
    """scored_roots seeing count usable CPUs, and chunk_work as its least work per
    chunk when given; yields os.fork wrapped in a mock that counts the forks."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(trees, "_usable_cpus", return_value=count))
        if chunk_work is not None:
            stack.enter_context(mock.patch.object(trees, "_CHUNK_WORK", chunk_work))
        yield stack.enter_context(mock.patch.object(os, "fork", wraps=os.fork))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exact(candidates):
    """Candidates with every float as float.hex, so a flipped bit or sign shows."""
    def bits(x):
        return None if x is None else x.hex()
    return [(c.root, c.depth, c.spanning, bits(c.metrics.tree_energy),
             bits(c.metrics.tree_cost), bits(c.metrics.total_distance)) for c in candidates]


def _exact_rows(rows):
    return [tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows]


def _selection(graph, cost, energy, rule):
    """A selection's exact outcome, or the NoSpanningCandidate message."""
    try:
        result = select_aggregator(graph, cost, energy, rule, TX_ENERGY)
    except errors.NoSpanningCandidate as exc:
        return str(exc)
    tree = result.tree
    return (result.chosen_root, _exact([result.ranking[0]]), _exact(result.ranking),
            tree.root, list(tree.parent.items()),
            [(v, d.hex()) for v, d in tree.dist.items()], tree.depth)


@pytest.mark.referee
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 12), isolated=st.booleans(),
       cpus=st.integers(2, 5))
def test_worker_scores_match_serial_scores(seed, n, isolated, cpus):
    """Split across up to cpus chunks, tie-heavy graphs, spanning or not, score and
    select exactly as in one chunk, under both tie rules and every scoring."""
    g = tie_heavy_graph(random.Random(seed), n, isolated)
    chunks = min(cpus, len(g))
    for cost in (CLMAT, RESIDUAL):
        for energy in (NODE_MIN, EDGE_MIN):
            with usable_cpus(1, chunk_work=1) as fork:
                serial = _exact(build_all_candidates(g, cost, energy, TX_ENERGY))
                chosen = {rule: _selection(g, cost, energy, rule) for rule in (MIN_DEPTH, FIRST_MIN)}
            assert fork.call_count == 0
            with usable_cpus(cpus, chunk_work=1) as fork:
                assert _exact(build_all_candidates(g, cost, energy, TX_ENERGY)) == serial
                assert fork.call_count == chunks - 1
                for rule in (MIN_DEPTH, FIRST_MIN):
                    assert _selection(g, cost, energy, rule) == chosen[rule]
            assert fork.call_count == 3 * (chunks - 1)
            assert_no_children()


@pytest.fixture(scope="module")
def n200(tmp_path_factory):
    path = tmp_path_factory.mktemp("n200") / "topo.json"
    path.write_text(export_json(spanning_topologies(1, n=200, radio_range=20.0)[0]),
                    encoding="utf-8")
    return str(path)


_COMMANDS = [["select", "--format", "table"], ["select", "--format", "json"],
             ["select", "--format", "dot"], ["trees", "--format", "csv"]]


def _outputs(path, out_dir):
    outputs = []
    for command, *flags in _COMMANDS:
        out = out_dir / "out.txt"
        assert main([command, path, *flags, "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    return outputs


def test_cli_bytes_match_with_and_without_workers(n200, tmp_path):
    """At n=200 select and trees fork by default, and write the bytes one CPU writes."""
    with usable_cpus(2) as fork:
        split = _outputs(n200, tmp_path)
    assert fork.call_count == len(_COMMANDS)
    assert_no_children()
    with usable_cpus(1) as fork:
        assert _outputs(n200, tmp_path) == split
    assert fork.call_count == 0


def test_failed_worker_chunk_is_scored_again_here(n200, tmp_path, monkeypatch):
    """A worker whose chunk raises exits non-zero, and the parent scores its chunk."""
    with usable_cpus(1):
        serial = _outputs(n200, tmp_path)
    parent = os.getpid()
    search = trees.shortest_path_search

    def broken_in_workers(*args):
        if os.getpid() != parent:
            raise RuntimeError("worker failure")
        return search(*args)

    monkeypatch.setattr(trees, "shortest_path_search", broken_in_workers)
    with usable_cpus(4) as fork:
        assert _outputs(n200, tmp_path) == serial
    assert fork.call_count == 3 * len(_COMMANDS)
    assert_no_children()


def test_failed_fork_scores_every_chunk_here(n200, monkeypatch):
    with open(n200, encoding="utf-8") as f:
        g = load_topology(f.read())
    serial = _exact(build_all_candidates(g))

    def no_fork():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", no_fork)
    with mock.patch.object(trees, "_usable_cpus", return_value=3):
        assert _exact(build_all_candidates(g)) == serial


def test_error_in_the_parents_chunk_kills_and_reaps_the_workers(monkeypatch):
    """The parent raises at once, so the workers' answers are lost: they are
    killed, not waited for, and reaped before the error propagates."""
    g = tie_heavy_graph(random.Random(5), 9, isolated=False)
    parent = os.getpid()
    search = trees.shortest_path_search

    def slow_in_workers(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return search(*args)

    monkeypatch.setattr(trees, "shortest_path_search", slow_in_workers)
    start = time.monotonic()
    with usable_cpus(3, chunk_work=1) as fork:
        with pytest.raises(ValueError, match="tx_energy"):
            build_all_candidates(g, RESIDUAL)
    assert time.monotonic() - start < 30
    assert fork.call_count == 2
    assert_no_children()


def test_a_second_thread_keeps_scoring_serial():
    g = tie_heavy_graph(random.Random(6), 9, isolated=False)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with usable_cpus(4, chunk_work=1) as fork:
            build_all_candidates(g)
    finally:
        release.set()
        other.join()
    assert fork.call_count == 0


@pytest.mark.parametrize("cpus, roots, work, chunks", [
    (1, 200, 10 ** 9, 1), (2, 200, 10 ** 9, 2), (64, 32, 10 ** 9, 32),
    (64, 200, 40 * trees._CHUNK_WORK, 40), (8, 200, 2 * trees._CHUNK_WORK - 1, 1),
    (8, 200, 2 * trees._CHUNK_WORK, 2), (8, 0, 0, 1)])
def test_chunks_never_outnumber_cpus_roots_or_work(cpus, roots, work, chunks):
    with mock.patch.object(trees, "_usable_cpus", return_value=cpus):
        bounds = trees._chunk_bounds(roots, work)
    assert len(bounds) - 1 == chunks
    assert bounds[0] == 0 and bounds[-1] == roots
    assert roots == 0 or all(lo < hi for lo, hi in zip(bounds, bounds[1:]))


def test_collect_trusts_only_a_whole_payload_from_a_clean_exit():
    rows = [(1, 2.0, None, math.inf, True), (0, 0.0, 5e-324, -0.0, False)]
    whole = marshal.dumps(rows)
    cases = [(whole, 0, rows), (whole[:-2], 0, None), (marshal.dumps(rows[:1]), 0, None),
             (whole, 3, None), (b"", 0, None)]
    for payload, code, want in cases:
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.write(w, payload)
            finally:
                os._exit(code)
        os.close(w)
        got = trees._collect(pid, r, len(rows))
        assert got == want and (got is None or _exact_rows(got) == _exact_rows(rows))
    assert_no_children()

