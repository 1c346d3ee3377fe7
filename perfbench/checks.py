"""Answer checks: structural invariants and reference comparisons.

A route is carried as ``(pois, length, semantic)``.  Every check
returns the problems it found as strings; a request with any problem
counts as failed.
"""

from __future__ import annotations

#: decimals compared between configurations whose float sums associate
#: differently (contraction-hierarchy legs vs left-to-right search sums)
DECIMALS = 9


def route_problems(routes) -> list[str]:
    """No PoI tuple twice, and no PoI twice within one route."""
    problems = []
    seen = set()
    for pois, _, _ in routes:
        if pois in seen:
            problems.append(f"duplicate route {pois}")
        seen.add(pois)
        if len(set(pois)) != len(pois):
            problems.append(f"route {pois} repeats a PoI")
    return problems


def skyline_problems(routes) -> list[str]:
    """:func:`route_problems` plus: no route of a k=1 answer is
    dominated by another (no worse on both axes, better on one)."""
    problems = route_problems(routes)
    for pois, length, semantic in routes:
        for other, o_length, o_semantic in routes:
            if (
                o_length <= length
                and o_semantic <= semantic
                and (o_length, o_semantic) != (length, semantic)
            ):
                problems.append(f"route {pois} is dominated by {other}")
                break
    return problems


def scores(routes) -> list[tuple[float, float]]:
    """``(length, semantic)`` per route, rounded for cross-config checks."""
    return [
        (round(length, DECIMALS), round(semantic, DECIMALS))
        for _, length, semantic in routes
    ]


def grain_skyline(routes) -> list[tuple[float, float]]:
    """The rounded score pairs that no other rounded pair dominates.

    A contraction-hierarchy sum can differ from the search's by one ULP,
    so a route whose length ties a better route's may survive in one
    configuration's skyline and be dominated in the other's; at the
    comparison grain both configurations agree."""
    pairs = set(scores(routes))
    return sorted(
        p for p in pairs
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pairs)
    )


def same_skyline(routes, reference) -> bool:
    """Equal skylines at the comparison grain (order is presentation)."""
    return grain_skyline(routes) == grain_skyline(reference)
