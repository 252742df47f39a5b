"""Structured query families: chains, stars, cycles and multiplicity scalings.

These families are the parameter sweeps of the scaling benchmarks (E6, E7):
their size is controlled by a single integer, their containment behaviour is
known analytically, and they stress different parts of the decision
procedure (number of atoms / unknowns for the containee, number of
containment mappings for the containing query).
"""

from __future__ import annotations

from repro.exceptions import WorkloadError
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.terms import Variable

__all__ = [
    "chain_query",
    "projection_free_chain",
    "star_query",
    "projection_free_star",
    "cycle_query",
    "amplified_query",
    "chain_containment_pair",
    "star_containment_pair",
]


def projection_free_chain(length: int, multiplicity: int = 1, name: str = "chain") -> ConjunctiveQuery:
    """``q(x0..x_len) ← R(x0,x1), R(x1,x2), ..., R(x_{len-1}, x_len)``, all variables free."""
    if length < 1:
        raise WorkloadError("chains need at least one edge")
    variables = [Variable(f"x{i}") for i in range(length + 1)]
    body = {
        Atom("R", (variables[i], variables[i + 1])): multiplicity for i in range(length)
    }
    return ConjunctiveQuery(tuple(variables), body, name=name)


def chain_query(length: int, free_endpoints_only: bool = True, name: str = "chain") -> ConjunctiveQuery:
    """A chain query; with *free_endpoints_only* the middle variables are existential."""
    if length < 1:
        raise WorkloadError("chains need at least one edge")
    variables = [Variable(f"x{i}") for i in range(length + 1)]
    body = [Atom("R", (variables[i], variables[i + 1])) for i in range(length)]
    head = (variables[0], variables[-1]) if free_endpoints_only else tuple(variables)
    return ConjunctiveQuery(head, body, name=name)


def projection_free_star(rays: int, multiplicity: int = 1, name: str = "star") -> ConjunctiveQuery:
    """``q(c, l1..l_rays) ← R(c, l1), ..., R(c, l_rays)``, all variables free."""
    if rays < 1:
        raise WorkloadError("stars need at least one ray")
    center = Variable("c")
    leaves = [Variable(f"l{i}") for i in range(rays)]
    body = {Atom("R", (center, leaf)): multiplicity for leaf in leaves}
    return ConjunctiveQuery((center, *leaves), body, name=name)


def star_query(rays: int, name: str = "star") -> ConjunctiveQuery:
    """A star query with only the centre free (the leaves are existential)."""
    if rays < 1:
        raise WorkloadError("stars need at least one ray")
    center = Variable("c")
    body = [Atom("R", (center, Variable(f"l{i}"))) for i in range(rays)]
    return ConjunctiveQuery((center,), body, name=name)


def cycle_query(length: int, projection_free: bool = True, name: str = "cycle") -> ConjunctiveQuery:
    """``q ← R(x0,x1), ..., R(x_{len-1}, x0)``; all variables free by default."""
    if length < 2:
        raise WorkloadError("cycles need at least two edges")
    variables = [Variable(f"x{i}") for i in range(length)]
    body = [Atom("R", (variables[i], variables[(i + 1) % length])) for i in range(length)]
    head = tuple(variables) if projection_free else (variables[0],)
    return ConjunctiveQuery(head, body, name=name)


def amplified_query(query: ConjunctiveQuery, factor: int, name: str | None = None) -> ConjunctiveQuery:
    """The query with every body multiplicity multiplied by *factor*.

    Raising multiplicities on the containing side preserves bag containment
    of a query into itself amplified (each answer multiplicity is raised to
    a power ≥ 1 on instances with multiplicities ≥ 1), which gives the
    benches a family of known-positive instances.
    """
    if factor < 1:
        raise WorkloadError("the amplification factor must be at least 1")
    return ConjunctiveQuery(
        query.head,
        {atom: multiplicity * factor for atom, multiplicity in query.body.items()},
        name=name or f"{query.name}x{factor}",
    )


def chain_containment_pair(length: int, relax: int = 1) -> tuple[ConjunctiveQuery, ConjunctiveQuery]:
    """A projection-free chain containee and a chain containing query with existential middle.

    The containing query keeps the endpoints of the chain free (matching the
    containee's first and last variables through the head is impossible
    unless arities agree, so instead both queries share the full
    projection-free head and the containing query *adds* ``relax`` parallel
    relaxed atoms through fresh existential variables).
    """
    containee = projection_free_chain(length, name="chain1")
    extra = {}
    for index in range(relax):
        extra[Atom("R", (Variable("x0"), Variable(f"y{index}")))] = 1
    containing = ConjunctiveQuery(
        containee.head,
        {**dict(containee.body), **extra},
        name="chain2",
    )
    return containee, containing


def star_containment_pair(rays: int) -> tuple[ConjunctiveQuery, ConjunctiveQuery]:
    """A star containee and a containing star whose leaves are existential copies.

    The containing query maps onto the containee in many ways: each of the
    ``rays`` existential leaves may go to any of the ``rays`` canonical
    leaves, so there are exactly ``rays**rays`` containment mappings — the
    stress test for the polynomial construction of Definition 3.3.  Each
    existential leaf is its own factor, so the factorised encoding
    enumerates only ``rays * rays`` factor mappings.
    """
    containee = projection_free_star(rays, name="star1")
    center = Variable("c")
    body = {Atom("R", (center, Variable(f"z{i}"))): 1 for i in range(rays)}
    for leaf_index in range(rays):
        body[Atom("R", (center, Variable(f"l{leaf_index}")))] = 1
    containing = ConjunctiveQuery(containee.head, body, name="star2")
    return containee, containing
