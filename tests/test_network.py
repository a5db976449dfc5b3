import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigrid_ilc.errors import DanglingEndpoint, DisconnectedGraph
from multigrid_ilc.network import IlcSpec, MgSpec, NetworkSpec, validate_topology


def chain(n_mgs, edges):
    return NetworkSpec(
        mgs=tuple(MgSpec(f"MG{i+1}") for i in range(n_mgs)),
        ilcs=tuple(IlcSpec(a, b) for a, b in edges),
    )


def test_dangling_endpoint():
    with pytest.raises(DanglingEndpoint):
        validate_topology(chain(2, [(0, 2)]))


def test_self_loop_rejected():
    with pytest.raises(DanglingEndpoint):
        validate_topology(chain(2, [(1, 1)]))


def test_disconnected():
    with pytest.raises(DisconnectedGraph):
        validate_topology(chain(4, [(0, 1)]))


def test_revalidation_idempotent():
    net = validate_topology(chain(2, [(0, 1)]))
    assert validate_topology(net) is net


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
    net = validate_topology(chain(n, edges))
    assert net.n_mgs == n
    assert [(ilc.mg_a, ilc.mg_b) for ilc in net.ilcs] == edges
