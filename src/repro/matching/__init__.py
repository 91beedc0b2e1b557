"""The matching layer: relations, views, plans, and answer caches.

``pydoc repro.matching`` is the reference for the whole layer:

* :class:`Relation` — mutable tuple sets with *maintained indexes*
  (persistent hash buckets patched by every mutation; see
  :meth:`Relation.ensure_index` and :meth:`Relation.probe`) and, once a
  reader asked for it (:meth:`Relation.track_deltas`), a signed delta log.
* :class:`EdgeViewRegistry` — the materialized base views of query edges
  and the interning boundary of the system.
* :class:`QueryEvaluationPlan` / :class:`PathPlan` — per-query covering-path
  decomposition, delta evaluation, the witness-probe existence checks
  (:meth:`QueryEvaluationPlan.has_new_binding` and
  ``evaluate_full(limit=1)``), and derivation enumeration — the one way
  every engine assembles answers, compiled in positional coordinates, so
  it probes the paths' positional relations (TRIC's shared trie views,
  INV/INC's per-call path joins) directly.
* :class:`MaterializedAnswers` / :class:`AnswerSetCache` — the maintained
  answer relations behind the ``+`` engines (TRIC+ / INV+ / INC+).
"""

from .answers import AnswerSetCache, MaterializedAnswers
from .evaluator import count_embeddings, find_embeddings, find_new_embeddings
from .plans import PathPlan, QueryEvaluationPlan, bindings_to_dicts
from .relation import Relation
from .views import EdgeViewRegistry

__all__ = [
    "Relation",
    "EdgeViewRegistry",
    "PathPlan",
    "QueryEvaluationPlan",
    "bindings_to_dicts",
    "MaterializedAnswers",
    "AnswerSetCache",
    "find_embeddings",
    "find_new_embeddings",
    "count_embeddings",
]
