"""Independent reference computations shared by the test modules."""

import itertools


def brute_maximal_cliques(adj):
    """Maximal cliques of {vertex: neighbours} on vertices 0..n-1, from
    every vertex subset."""
    n = len(adj)
    cliques = [set(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)
               if all(b in adj[a] for a, b in itertools.combinations(c, 2))]
    return sorted(sorted(c) for c in cliques if not any(c < d for d in cliques))


def dense_rank_mod_p(rows, p):
    """Plain dense row echelon over F_p, as an independent oracle."""
    work = [[x % p for x in r] for r in rows]
    rank = 0
    col = 0
    ncols = len(work[0]) if work else 0
    while rank < len(work) and col < ncols:
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
        col += 1
    return rank
