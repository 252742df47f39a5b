"""Query model: conjunctive queries, unions of CQs, parser, printer, builder."""

from types import MappingProxyType
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.queries.builder import QueryBuilder
    from repro.queries.cq import BodyAtom, ConjunctiveQuery
    from repro.queries.parser import parse_atom, parse_cq, parse_term, parse_ucq
    from repro.queries.printer import (
        format_answer_bag,
        format_atom,
        format_bag_instance,
        format_query,
        format_set_instance,
        format_term,
        format_ucq,
    )
    from repro.queries.ucq import UnionOfConjunctiveQueries

#: Each exported name and the module that defines it (``repro._lazy``).
_EXPORTS = MappingProxyType(
    {
        "BodyAtom": "repro.queries.cq",
        "ConjunctiveQuery": "repro.queries.cq",
        "QueryBuilder": "repro.queries.builder",
        "UnionOfConjunctiveQueries": "repro.queries.ucq",
        "format_answer_bag": "repro.queries.printer",
        "format_atom": "repro.queries.printer",
        "format_bag_instance": "repro.queries.printer",
        "format_query": "repro.queries.printer",
        "format_set_instance": "repro.queries.printer",
        "format_term": "repro.queries.printer",
        "format_ucq": "repro.queries.printer",
        "parse_atom": "repro.queries.parser",
        "parse_cq": "repro.queries.parser",
        "parse_term": "repro.queries.parser",
        "parse_ucq": "repro.queries.parser",
    }
)

# Type checkers see the names through the `TYPE_CHECKING` imports above.
if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
