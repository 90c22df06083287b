"""Path computation: min-hop primaries and loop-free alternates by length.

The paper's routing scheme needs, per ordered O-D pair:

* a unique minimum-hop **primary path** ``P*(i, j)`` (its base
  state-independent rule), and
* the **loop-free alternate paths**, attempted in order of increasing hop
  length, optionally truncated at ``H`` hops (the design parameter of
  Section 3).

The paper computes these with a K-shortest-path algorithm; we provide BFS
min-hop routing with a deterministic lexicographic tie-break, Yen-style
K-shortest simple paths, exhaustive simple-path enumeration ordered by
``(length, lexicographic)``, and the :class:`PathTable` bundling primaries
and alternates for the whole network.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Iterator, Sequence

from .graph import Network

__all__ = [
    "min_hop_distances",
    "min_hop_path",
    "all_min_hop_paths",
    "simple_paths_by_length",
    "k_shortest_paths",
    "PathTable",
    "build_path_table",
    "alternate_path_census",
]

Path = tuple[int, ...]
Links = tuple[int, ...]


def min_hop_distances(network: Network, source: int) -> list[float]:
    """Hop distance from ``source`` to every node (``inf`` if unreachable)."""
    dist: list[float] = [float("inf")] * network.num_nodes
    dist[source] = 0
    frontier = [source]
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor in network.neighbors(node):
                if dist[neighbor] == float("inf"):
                    dist[neighbor] = dist[node] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return dist


def _adjacency(network: Network) -> list[list[tuple[int, int]]]:
    """Per node, its working out-links as ``(neighbour, link index)``, sorted."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in network.nodes()]
    for link in network.links:
        if not network.is_failed(link.index):
            adjacency[link.src].append((link.dst, link.index))
    for row in adjacency:
        row.sort()
    return adjacency


def _distances_to(
    adjacency: list[list[tuple[int, int]]], dst: int, blocked: AbstractSet[int] = frozenset()
) -> list[float]:
    """Hop distance from every node to ``dst``, never passing ``blocked`` nodes."""
    upstream: list[list[int]] = [[] for _ in adjacency]
    for node, row in enumerate(adjacency):
        for neighbor, __ in row:
            upstream[neighbor].append(node)
    dist: list[float] = [float("inf")] * len(adjacency)
    dist[dst] = 0
    frontier = [dst]
    while frontier:
        next_frontier = []
        for node in frontier:
            for up in upstream[node]:
                if dist[up] == float("inf") and up not in blocked:
                    dist[up] = dist[node] + 1
                    next_frontier.append(up)
        frontier = next_frontier
    return dist


def _descend(adjacency: list[list[tuple[int, int]]], dist: list[float],
             src: int) -> Path | None:
    """The lexicographically smallest path from ``src`` down ``dist`` to 0.

    This is :func:`_walk` with the budget set to ``dist[src]``: the bound
    then admits only neighbours one hop closer, no branch dead-ends, and
    the first branch of the sorted adjacency is taken at every step.
    """
    if dist[src] == float("inf"):
        return None
    path = [src]
    node = src
    while dist[node]:
        node = next(nb for nb, __ in adjacency[node] if dist[nb] == dist[node] - 1)
        path.append(node)
    return tuple(path)


def _walk(
    adjacency: list[list[tuple[int, int]]],
    src: int,
    limit: int,
    dist: list[float] | None = None,
) -> Iterator[tuple[list[Path], list[Links]]]:
    """Every simple path leaving ``src`` within ``limit`` hops, by hop count.

    The one path enumerator.  Yields, for 1, 2, ... hops, the node paths of
    that length and, index for index, their link tuples — grown together,
    so no path is ever resolved to links again.  Each level lists its paths
    in lexicographic order: it extends the previous level's paths in order,
    each through its sorted adjacency.  With ``dist`` (hop distances to one
    destination) a branch is grown only if its new end can still reach the
    destination in the hops left, and no path passes through it.
    """
    level: tuple[list[Path], list[Links]] = ([(src,)], [()])
    for hops in range(1, limit + 1):
        budget = limit - hops
        grown_nodes: list[Path] = []
        grown_links: list[Links] = []
        add_nodes, add_links = grown_nodes.append, grown_links.append
        for nodes, links in zip(*level):
            if dist is not None and not dist[nodes[-1]]:
                continue  # at the destination
            for node, link in adjacency[nodes[-1]]:
                if node not in nodes and (dist is None or dist[node] <= budget):
                    add_nodes(nodes + (node,))
                    add_links(links + (link,))
        if not grown_nodes:
            return
        level = (grown_nodes, grown_links)
        yield level


def min_hop_path(network: Network, src: int, dst: int) -> Path | None:
    """The lexicographically smallest minimum-hop path ``src -> dst``.

    The lexicographic tie-break makes the paper's "unique primary path"
    deterministic and reproducible.  Returns ``None`` when ``dst`` is
    unreachable.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    return _min_hop_path_avoiding(network, src, dst, frozenset())


def all_min_hop_paths(network: Network, src: int, dst: int) -> list[Path]:
    """Every minimum-hop path ``src -> dst`` in lexicographic order."""
    shortest = min_hop_path(network, src, dst)
    if shortest is None:
        return []
    return simple_paths_by_length(network, src, dst, max_hops=len(shortest) - 1)


def simple_paths_by_length(
    network: Network,
    src: int,
    dst: int,
    max_hops: int | None = None,
) -> list[Path]:
    """All simple (loop-free) paths ``src -> dst``, sorted by (length, lex).

    ``max_hops`` bounds the hop count (the paper's ``H``); ``None`` allows
    any loop-free length, i.e. up to ``num_nodes - 1`` hops.  Exhaustive
    enumeration stays practical on the meshes studied here: the 30-node
    Waxman mesh of the ``study-mesh-adversarial`` benchmark has 353,344
    alternates at ``H = 5``, and :func:`build_path_table` enumerates all of
    them, with their link tuples, in 0.3-0.5 s on a 2-vCPU x86-64 box
    (Python 3.11).
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    limit = network.num_nodes - 1 if max_hops is None else max_hops
    adjacency = _adjacency(network)
    dist = _distances_to(adjacency, dst)
    return [nodes for level, __ in _walk(adjacency, src, limit, dist)
            for nodes in level if nodes[-1] == dst]


def k_shortest_paths(
    network: Network,
    src: int,
    dst: int,
    k: int,
    max_hops: int | None = None,
) -> list[Path]:
    """Yen's algorithm: the ``k`` shortest simple paths by hop count.

    Ties are broken lexicographically, so the output is a prefix of
    :func:`simple_paths_by_length`'s ordering.  Provided as the scalable
    route-computation the paper mentions; on the paper's small meshes the
    exhaustive enumeration is equally usable and the two are cross-checked
    in the tests.
    """
    if k < 1:
        return []
    first = min_hop_path(network, src, dst)
    if first is None:
        return []
    limit = network.num_nodes - 1 if max_hops is None else max_hops
    if len(first) - 1 > limit:
        return []
    found: list[Path] = [first]
    # Candidate heap keyed by (length, path) for deterministic ordering.
    candidates: list[tuple[int, Path]] = []
    seen: set[Path] = {first}
    while len(found) < k:
        prev = found[-1]
        for i in range(len(prev) - 1):
            spur_node = prev[i]
            root = prev[: i + 1]
            removed: list[tuple[int, int]] = []
            for path in found:
                if len(path) > i and path[: i + 1] == root:
                    a, b = path[i], path[i + 1]
                    if network.has_link(a, b):
                        network.fail_link(a, b)
                        removed.append((a, b))
            blocked_nodes = set(root[:-1])
            spur = _min_hop_path_avoiding(network, spur_node, dst, blocked_nodes)
            for a, b in removed:
                network.restore_link(a, b)
            if spur is None:
                continue
            total = root[:-1] + spur
            if len(total) - 1 > limit or total in seen:
                continue
            if len(set(total)) != len(total):
                continue
            seen.add(total)
            heapq.heappush(candidates, (len(total), total))
        if not candidates:
            break
        __, best = heapq.heappop(candidates)
        found.append(best)
    return found[:k]


def _min_hop_path_avoiding(
    network: Network, src: int, dst: int, blocked: AbstractSet[int]
) -> Path | None:
    """Lexicographically smallest min-hop path avoiding ``blocked`` nodes."""
    if src in blocked or dst in blocked:
        return None
    adjacency = _adjacency(network)
    return _descend(adjacency, _distances_to(adjacency, dst, blocked), src)


@dataclass(frozen=True)
class PathTable:
    """Primary and alternate paths for every ordered O-D pair.

    ``primary[(i, j)]`` is the unique primary path and
    ``alternates[(i, j)]`` the loop-free alternates in increasing-length
    order, primary excluded, truncated at ``max_hops`` hops.  Pairs that are
    disconnected are absent from ``primary``.

    ``primary_links`` and ``alternate_links`` hold the same paths as
    link-index tuples, in the same order; policies, link loads and overlap
    scores read them instead of re-deriving them.  They are the links of
    the network state the table was built for, whose failed links
    ``failed_links`` records; :meth:`check_current` refuses a network on
    which a routed link has failed since.
    """

    primary: dict[tuple[int, int], Path]
    alternates: dict[tuple[int, int], tuple[Path, ...]]
    max_hops: int
    primary_links: dict[tuple[int, int], Links]
    alternate_links: dict[tuple[int, int], tuple[Links, ...]]
    failed_links: frozenset[int]

    def routes(self, od: tuple[int, int]) -> tuple[Path, ...]:
        """Primary followed by alternates for an O-D pair."""
        if od not in self.primary:
            return ()
        return (self.primary[od],) + self.alternates.get(od, ())

    def route_links(self, od: tuple[int, int]) -> tuple[Links, ...]:
        """:meth:`routes` as link-index tuples."""
        if od not in self.primary_links:
            return ()
        return (self.primary_links[od],) + self.alternate_links.get(od, ())

    def od_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.primary)

    def check_current(self, network: Network, alternates: bool = True) -> None:
        """Raise ``ValueError`` if a routed link has failed since the build.

        Checks the primaries, and the alternates unless ``alternates`` is
        false.  Costs one set difference when no link has failed since.
        """
        dead = network.failed_links - self.failed_links
        if not dead:
            return
        for od, primary in self.primary_links.items():
            for links in (primary, *self.alternate_links[od]) if alternates else (primary,):
                if not dead.isdisjoint(links):
                    link = network.link(next(i for i in links if i in dead))
                    raise ValueError(
                        f"path uses missing or failed link {link.src}->{link.dst}"
                    )


def build_path_table(
    network: Network,
    max_hops: int | None = None,
    primary: dict[tuple[int, int], Path] | None = None,
) -> PathTable:
    """Build the :class:`PathTable` for a network.

    ``max_hops`` is the paper's ``H`` (maximum alternate-path hop length);
    ``None`` means unrestricted, i.e. ``num_nodes - 1``.  A custom
    ``primary`` mapping may be supplied (the min-link-loss experiments pick
    primaries by optimization); by default the lexicographic min-hop path is
    used.  Primaries longer than ``H`` are allowed — such pairs simply get no
    alternates, as Section 3.2 discusses.

    One :func:`_walk` per source enumerates the paths to every destination
    at once: every path it grows ends at some node, so none is wasted.  A
    pair's pool comes out ordered by (length, lex), so its first path is
    the min-hop primary; distances are computed, once per destination, only
    for pairs with no path within ``H``.
    """
    limit = network.num_nodes - 1 if max_hops is None else max_hops
    adjacency = _adjacency(network)
    distances: dict[int, list[float]] = {}
    primaries: dict[tuple[int, int], Path] = {}
    primary_links: dict[tuple[int, int], Links] = {}
    alternates: dict[tuple[int, int], tuple[Path, ...]] = {}
    alternate_links: dict[tuple[int, int], tuple[Links, ...]] = {}
    for src in network.nodes():
        pool_nodes: list[list[Path]] = [[] for _ in adjacency]
        pool_links: list[list[Links]] = [[] for _ in adjacency]
        for level_nodes, level_links in _walk(adjacency, src, limit):
            for nodes, links in zip(level_nodes, level_links):
                pool_nodes[nodes[-1]].append(nodes)
                pool_links[nodes[-1]].append(links)
        for dst in network.nodes():
            if dst == src:
                continue
            od = (src, dst)
            paths, links = pool_nodes[dst], pool_links[dst]
            if primary is not None and od in primary:
                chosen = tuple(primary[od])
                if not network.is_valid_path(chosen):
                    raise ValueError(f"supplied primary for {od} is not a valid path")
                chosen_links = network.path_links(chosen)
                if chosen in paths:
                    at = paths.index(chosen)
                    del paths[at], links[at]
            elif paths:
                chosen, chosen_links = paths[0], links[0]
                paths, links = paths[1:], links[1:]
            else:  # no path within H: the primary is longer, or there is none
                if dst not in distances:
                    distances[dst] = _distances_to(adjacency, dst)
                found = _descend(adjacency, distances[dst], src)
                if found is None:
                    continue
                chosen, chosen_links = found, network.path_links(found)
            primaries[od] = chosen
            primary_links[od] = chosen_links
            alternates[od] = tuple(paths)
            alternate_links[od] = tuple(links)
    return PathTable(primary=primaries, alternates=alternates, max_hops=limit,
                     primary_links=primary_links, alternate_links=alternate_links,
                     failed_links=network.failed_links)


def alternate_path_census(table: PathTable) -> dict[str, float]:
    """Summary statistics of alternate-path counts per O-D pair.

    The paper reports, for the NSFNet model: about 9 alternates on average
    (max 15, min 5) when ``H = 11`` and about 7 (max 13, min 5) when
    ``H = 6``.
    """
    counts = [len(table.alternates.get(od, ())) for od in table.od_pairs()]
    if not counts:
        return {"mean": 0.0, "max": 0.0, "min": 0.0, "pairs": 0.0}
    return {
        "mean": sum(counts) / len(counts),
        "max": float(max(counts)),
        "min": float(min(counts)),
        "pairs": float(len(counts)),
    }


def iter_routes(
    table: PathTable,
) -> Iterator[tuple[tuple[int, int], Sequence[Path]]]:
    """Iterate ``(od, routes)`` over all connected pairs."""
    for od in table.od_pairs():
        yield od, table.routes(od)
