"""Unit tests for path computation, cross-checked against networkx."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.routing.alternate import UncontrolledAlternateRouting
from repro.routing.single_path import SinglePathRouting
from repro.topology.generators import (
    fully_connected,
    grid,
    line,
    quadrangle,
    random_mesh,
    ring,
    waxman_mesh,
)
from repro.topology.graph import Network
from repro.topology.paths import (
    all_min_hop_paths,
    alternate_path_census,
    build_path_table,
    k_shortest_paths,
    min_hop_distances,
    min_hop_path,
    simple_paths_by_length,
)


def to_networkx(network: Network) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(network.nodes())
    for link in network.links:
        if not network.is_failed(link.index):
            graph.add_edge(link.src, link.dst)
    return graph


MESHES = [
    fully_connected(4, 1),
    ring(6, 1),
    grid(3, 3, 1),
    random_mesh(8, 5, 1, seed=3),
]


class TestMinHop:
    @pytest.mark.parametrize("network", MESHES)
    def test_distances_match_networkx(self, network):
        graph = to_networkx(network)
        for src in network.nodes():
            ours = min_hop_distances(network, src)
            reference = nx.single_source_shortest_path_length(graph, src)
            for dst in network.nodes():
                assert ours[dst] == reference.get(dst, float("inf"))

    @pytest.mark.parametrize("network", MESHES)
    def test_min_hop_path_is_shortest(self, network):
        graph = to_networkx(network)
        for src in network.nodes():
            for dst in network.nodes():
                if src == dst:
                    continue
                path = min_hop_path(network, src, dst)
                assert path is not None
                assert len(path) - 1 == nx.shortest_path_length(graph, src, dst)
                assert network.is_valid_path(path)

    def test_lexicographic_tie_break(self):
        net = fully_connected(4, 1)
        # All 2-hop paths 0->x->3 tie; min-hop is the direct link, but check
        # the all-paths enumeration is lexicographic.
        paths = all_min_hop_paths(net, 0, 3)
        assert paths == [(0, 3)]
        # Remove the direct links; now 2-hop paths tie and 0->1->3 wins.
        net.fail_duplex_link(0, 3)
        assert min_hop_path(net, 0, 3) == (0, 1, 3)
        assert all_min_hop_paths(net, 0, 3) == [(0, 1, 3), (0, 2, 3)]

    def test_unreachable_returns_none(self):
        net = Network(3)
        net.add_link(0, 1, 1)
        assert min_hop_path(net, 0, 2) is None
        assert all_min_hop_paths(net, 0, 2) == []

    def test_same_node_rejected(self):
        net = fully_connected(3, 1)
        with pytest.raises(ValueError):
            min_hop_path(net, 1, 1)

    def test_respects_directionality(self):
        net = Network(3)
        net.add_link(0, 1, 1)
        net.add_link(1, 2, 1)
        net.add_link(2, 0, 1)
        assert min_hop_path(net, 0, 2) == (0, 1, 2)
        assert min_hop_path(net, 2, 1) == (2, 0, 1)


class TestSimplePaths:
    @pytest.mark.parametrize("network", MESHES)
    def test_matches_networkx_enumeration(self, network):
        graph = to_networkx(network)
        for src, dst in [(0, network.num_nodes - 1), (1, 2)]:
            ours = simple_paths_by_length(network, src, dst)
            reference = sorted(
                (tuple(p) for p in nx.all_simple_paths(graph, src, dst)),
                key=lambda p: (len(p), p),
            )
            assert ours == reference

    @pytest.mark.parametrize("network", MESHES)
    def test_hop_limit_respected(self, network):
        for limit in (1, 2, 3):
            paths = simple_paths_by_length(network, 0, network.num_nodes - 1, limit)
            assert all(len(p) - 1 <= limit for p in paths)

    def test_sorted_by_length_then_lex(self):
        net = fully_connected(4, 1)
        paths = simple_paths_by_length(net, 0, 1)
        keys = [(len(p), p) for p in paths]
        assert keys == sorted(keys)

    def test_zero_limit_empty(self):
        net = fully_connected(3, 1)
        assert simple_paths_by_length(net, 0, 1, max_hops=0) == []


class TestKShortest:
    @pytest.mark.parametrize("network", MESHES)
    def test_prefix_of_full_enumeration(self, network):
        src, dst = 0, network.num_nodes - 1
        full = simple_paths_by_length(network, src, dst)
        for k in (1, 3, 7):
            assert k_shortest_paths(network, src, dst, k) == full[: min(k, len(full))]

    def test_matches_networkx_lengths(self):
        network = random_mesh(9, 6, 1, seed=11)
        graph = to_networkx(network)
        ours = k_shortest_paths(network, 0, 8, 6)
        reference = []
        for path in nx.shortest_simple_paths(graph, 0, 8):
            reference.append(tuple(path))
            if len(reference) == 6:
                break
        assert [len(p) for p in ours] == [len(p) for p in reference]

    def test_unreachable(self):
        net = Network(2)
        net.add_link(1, 0, 1)
        assert k_shortest_paths(net, 0, 1, 3) == []

    def test_zero_k(self):
        net = fully_connected(3, 1)
        assert k_shortest_paths(net, 0, 1, 0) == []

    def test_does_not_mutate_network(self):
        net = fully_connected(4, 1)
        k_shortest_paths(net, 0, 3, 5)
        assert not net.failed_links


class TestPathTable:
    def test_quadrangle_routes(self, quad_network, quad_table):
        routes = quad_table.routes((0, 1))
        assert routes[0] == (0, 1)
        assert set(routes[1:3]) == {(0, 2, 1), (0, 3, 1)}
        assert len(routes) == 5  # direct + two 2-hop + two 3-hop

    def test_alternates_exclude_primary(self, quad_table):
        for od in quad_table.od_pairs():
            assert quad_table.primary[od] not in quad_table.alternates[od]

    def test_alternates_ordered_by_length(self, nsfnet_table):
        for od in nsfnet_table.od_pairs():
            lengths = [len(p) for p in nsfnet_table.alternates[od]]
            assert lengths == sorted(lengths)

    def test_census_matches_paper_h11(self, nsfnet_table):
        census = alternate_path_census(nsfnet_table)
        # Paper: "about 9 alternate paths, with a maximum of 15 and a minimum of 5".
        assert 8.0 <= census["mean"] <= 9.5
        assert census["max"] == 15.0
        assert census["min"] == 5.0
        assert census["pairs"] == 132.0

    def test_custom_primary_respected(self, quad_network):
        table = build_path_table(quad_network, primary={(0, 1): (0, 2, 1)})
        assert table.primary[(0, 1)] == (0, 2, 1)
        assert (0, 1) in table.alternates[(0, 1)]

    def test_invalid_custom_primary_rejected(self, quad_network):
        with pytest.raises(ValueError):
            build_path_table(quad_network, primary={(0, 1): (0, 1, 1)})

    def test_disconnected_pair_absent(self):
        net = Network(3)
        net.add_duplex_link(0, 1, 1)
        table = build_path_table(net)
        assert (0, 2) not in table.primary
        assert table.routes((0, 2)) == ()

    def test_line_topology_has_no_alternates(self):
        net = line(5, 1)
        table = build_path_table(net)
        assert all(not alts for alts in table.alternates.values())

    def test_empty_census(self):
        net = Network(2)
        net.add_link(0, 1, 1)
        table = build_path_table(net)
        census = alternate_path_census(table)
        assert census["mean"] == 0.0

    def test_link_tuples_follow_the_paths(self, nsfnet, nsfnet_table_h6):
        for od, primary in nsfnet_table_h6.primary.items():
            assert nsfnet_table_h6.primary_links[od] == nsfnet.path_links(primary)
            assert nsfnet_table_h6.alternate_links[od] == tuple(
                nsfnet.path_links(path) for path in nsfnet_table_h6.alternates[od]
            )
            assert nsfnet_table_h6.route_links(od) == tuple(
                nsfnet.path_links(path) for path in nsfnet_table_h6.routes(od)
            )

    @pytest.mark.parametrize("policy", [SinglePathRouting, UncontrolledAlternateRouting])
    def test_policy_refuses_a_link_failed_after_the_build(self, policy):
        net = quadrangle(10)
        table = build_path_table(net)
        policy(net, table)
        net.fail_duplex_link(0, 1)
        with pytest.raises(ValueError, match="failed link 0->1"):
            policy(net, table)
        # A table built on the failed network routes around the link.
        rebuilt = build_path_table(net)
        assert rebuilt.failed_links == net.failed_links
        policy(net, rebuilt)
        net.restore_all()
        policy(net, rebuilt)  # a restored link is merely unused

    def test_single_path_ignores_a_failed_alternate_only_link(self):
        # With (0, 1) routed the long way, the direct link carries no primary.
        net = quadrangle(10)
        table = build_path_table(net, primary={(0, 1): (0, 2, 1)})
        net.fail_link(0, 1)
        SinglePathRouting(net, table)
        with pytest.raises(ValueError, match="failed link 0->1"):
            UncontrolledAlternateRouting(net, table)


@st.composite
def failed_meshes(draw) -> Network:
    """A random or Waxman mesh of 4-9 nodes with some duplex links failed."""
    num_nodes = draw(st.integers(4, 9))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        network = random_mesh(num_nodes, draw(st.integers(0, 2 * num_nodes)), 1, seed=seed)
    else:
        network = waxman_mesh(num_nodes, 1, alpha=0.6, seed=seed)
    duplex = sorted({tuple(sorted(link.endpoints)) for link in network.links})
    for a, b in draw(st.lists(st.sampled_from(duplex), max_size=3, unique=True)):
        network.fail_duplex_link(a, b)
    return network


class TestRandomizedDifferential:
    """The path table against networkx on random meshes with failed links."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(network=failed_meshes(), max_hops=st.sampled_from([None, 1, 2, 3, 4]))
    def test_table_matches_networkx(self, network, max_hops):
        table = build_path_table(network, max_hops=max_hops)
        graph = to_networkx(network)
        cutoff = network.num_nodes - 1 if max_hops is None else max_hops
        assert table.failed_links == network.failed_links
        for od in network.node_pairs():
            if not nx.has_path(graph, *od):
                assert od not in table.primary
                continue
            primary = min(tuple(p) for p in nx.all_shortest_paths(graph, *od))
            pool = sorted((tuple(p) for p in nx.all_simple_paths(graph, *od, cutoff=cutoff)),
                          key=lambda p: (len(p), p))
            assert table.primary[od] == primary
            assert table.alternates[od] == tuple(p for p in pool if p != primary)
            assert simple_paths_by_length(network, *od, max_hops=max_hops) == pool
            assert table.primary_links[od] == network.path_links(primary)
            assert table.alternate_links[od] == tuple(
                network.path_links(path) for path in table.alternates[od]
            )
