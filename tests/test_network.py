import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigrid_ilc.errors import DanglingEndpoint, DisconnectedGraph
from multigrid_ilc.network import ValidatedNetwork


def test_dangling_endpoint():
    with pytest.raises(DanglingEndpoint):
        ValidatedNetwork(2, ((0, 2),))


def test_self_loop_rejected():
    with pytest.raises(DanglingEndpoint):
        ValidatedNetwork(2, ((1, 1),))


def test_disconnected():
    with pytest.raises(DisconnectedGraph):
        ValidatedNetwork(4, ((0, 1),))


def test_no_microgrids():
    with pytest.raises(DisconnectedGraph, match="no microgrids"):
        ValidatedNetwork(0, ())


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_connected_multigraphs_validate(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    # a random spanning tree plus extra edges (repeats allowed) keeps the
    # graph connected
    edges = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = data.draw(st.integers(0, 3))
    for _ in range(extra):
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        if a != b:
            edges.append((a, b))
    net = ValidatedNetwork(n, tuple(edges))
    assert net.n_mgs == n
    assert net.n_ilcs == len(edges)
    assert list(net.ends) == edges
