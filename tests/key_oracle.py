"""The exhaustive reference for circle-graph canonical keys.

`searched_serialization` permutes every class of like vertices with edges
and keeps the least (verts, links); it shares no code with
`circle_graph._serialize`.  `least_serialization` is the least of both
reflections, the key `circle_graph._key` must equal.
"""

import itertools
import math


def vertex_keys(graph, flip):
    """Each vertex's key: moment above the minimum (below the maximum when
    flipped), then (1, genus, area) for a surface or (0, weights) for a
    point, a flipped pair (m, n) read as (-n, -m)."""
    keys, lo, hi = {}, graph.min_moment, graph.max_moment
    for v in graph.vertices:
        offset = hi - v.moment if flip else v.moment - lo
        if v.is_surface:
            keys[v.id] = (offset, 1, v.genus, v.area)
        else:
            m, n = v.weights
            keys[v.id] = (offset, 0, -n, -m) if flip else (offset, 0, m, n)
    return keys


def searched_serialization(graph, flip, keys, budget=5000):
    """The least serialization over every ordering of the tied vertices with
    edges, or None when there are more than `budget` orderings.

    It permutes each class of vertices with equal key and equal (k, pole,
    key at the other end) edges, and keeps the least (verts, links)."""
    local = {v.id: [] for v in graph.vertices}
    for north, south, k in graph.edges:
        local[north].append((k, 1, keys[south]))
        local[south].append((k, 0, keys[north]))
    label = {i: (keys[i], tuple(sorted(links))) for i, links in local.items()}
    ordered = sorted(graph.vertices, key=lambda v: label[v.id])
    groups = []
    for index, vertex in enumerate(ordered):
        if index and label[vertex.id] == label[ordered[index - 1].id]:
            groups[-1].append(index)
        else:
            groups.append([index])
    tied = [g for g in groups if len(g) > 1 and label[ordered[g[0]].id][1]]
    if math.prod(math.factorial(len(g)) for g in tied) > budget:
        return None
    best = None
    for perms in itertools.product(*(itertools.permutations(g) for g in tied)):
        order = list(ordered)
        for group, perm in zip(tied, perms):
            for slot, source in zip(group, perm):
                order[slot] = ordered[source]
        position = {v.id: i for i, v in enumerate(order)}
        poles = ((s, n, k) if flip else (n, s, k) for n, s, k in graph.edges)
        links = tuple(sorted((position[a], position[b], k) for a, b, k in poles))
        serialized = (tuple(keys[v.id] for v in order), links)
        if best is None or serialized < best:
            best = serialized
    return best


def least_serialization(graph):
    """The least searched serialization of both reflections, or None when
    either side has more orderings than the search's default budget."""
    sides = [searched_serialization(graph, flip, vertex_keys(graph, flip)) for flip in (False, True)]
    return None if None in sides else min(sides)
