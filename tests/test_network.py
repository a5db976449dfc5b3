import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigrid_ilc.errors import DanglingEndpoint, DisconnectedGraph
from multigrid_ilc.network import (
    IlcSpec,
    MgSpec,
    NetworkSpec,
    build_ilc_incidence,
    validate_topology,
)


def chain(n_mgs, edges):
    return NetworkSpec(
        mgs=tuple(MgSpec(f"MG{i+1}") for i in range(n_mgs)),
        ilcs=tuple(IlcSpec(a, b) for a, b in edges),
    )


def test_three_mg_enumeration():
    net = validate_topology(chain(3, [(0, 1), (1, 2)]))
    labels = [c.label() for c in net.connections]
    assert labels == ["c1@MG1", "c2@MG2", "c3@MG2", "c4@MG3"]


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


def test_incidence_fig3_network():
    net = validate_topology(chain(3, [(0, 1), (1, 2)]))
    a = build_ilc_incidence(net)
    assert a.data.tolist() == [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]


def test_incidence_two_mg():
    net = validate_topology(chain(2, [(0, 1)]))
    assert build_ilc_incidence(net).data.tolist() == [[1, 0], [0, 1]]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_incidence_column_sums_and_pairing(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    # a random spanning tree plus extra edges keeps the graph connected
    edges = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = data.draw(st.integers(0, 3))
    for _ in range(extra):
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        if a != b:
            edges.append((a, b))
    net = validate_topology(chain(n, edges))
    a = build_ilc_incidence(net)
    assert (a.data.sum(axis=0) == 1).all()
    assert a.data.shape == (n, 2 * len(edges))
    # connections 2l, 2l+1 belong to ILC l
    for l, ilc in enumerate(net.ilcs):
        assert net.connections[2 * l].mg == ilc.mg_a
        assert net.connections[2 * l + 1].mg == ilc.mg_b

