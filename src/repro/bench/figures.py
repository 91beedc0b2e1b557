"""Figure metadata: what each experiment reproduces and the expected shape.

Used by the CLI to print, beside each regenerated figure, the paper's
observation and the expected shape to compare the measured series with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["FigureSpec", "FIGURES"]


@dataclass(frozen=True)
class FigureSpec:
    """Description of one paper figure and the claim it supports."""

    figure: str
    dataset: str
    varied: str
    paper_observation: str
    expected_shape: str


FIGURES: Dict[str, FigureSpec] = {
    "fig12a": FigureSpec(
        figure="Figure 12(a)",
        dataset="SNB",
        varied="graph size (10K–100K edges)",
        paper_observation=(
            "TRIC improves answering time over INV, INC and Neo4j by 99.15%, 98.14% "
            "and 91.86%; TRIC+ improves over INV+, INC+ and Neo4j by 99.62%, 99.17% "
            "and 96.74%; caching variants beat their non-caching counterparts."
        ),
        expected_shape=(
            "TRIC+ fastest, then TRIC; INC variants beat INV variants; GraphDB slowest "
            "or timing out; every engine slows as the graph grows."
        ),
    ),
    "fig12b": FigureSpec(
        figure="Figure 12(b)",
        dataset="SNB",
        varied="selectivity σ (10%–30%)",
        paper_observation=(
            "All algorithms keep the same relative order for every σ; higher σ means "
            "more satisfied queries and more work for every engine."
        ),
        expected_shape="TRIC+ < TRIC < INC+/INC < INV+/INV < GraphDB at every σ.",
    ),
    "fig12c": FigureSpec(
        figure="Figure 12(c)",
        dataset="SNB",
        varied="query database size |QDB| (1K, 3K, 5K)",
        paper_observation=(
            "Answering time grows with |QDB| for every algorithm (log-scale y axis); "
            "TRIC/TRIC+ stay lowest throughout."
        ),
        expected_shape="Monotone growth with |QDB|; trie-based engines lowest.",
    ),
    "fig12d": FigureSpec(
        figure="Figure 12(d)",
        dataset="SNB",
        varied="average query size l (3, 5, 7, 9)",
        paper_observation=(
            "Answering time increases with l for all algorithms; TRIC/TRIC+ remain "
            "fastest, the baselines degrade sharply at l = 9."
        ),
        expected_shape="Growth with l; widening gap between TRIC-family and baselines.",
    ),
    "fig12e": FigureSpec(
        figure="Figure 12(e)",
        dataset="SNB",
        varied="query overlap o (25%–65%)",
        paper_observation=(
            "Higher overlap reduces the work of clustering-based algorithms; TRIC+ is "
            "the fastest overall, TRIC the fastest non-caching algorithm."
        ),
        expected_shape="TRIC/TRIC+ flat or improving with o; baselines roughly flat.",
    ),
    "fig12f": FigureSpec(
        figure="Figure 12(f)",
        dataset="SNB (1M edges)",
        varied="graph size",
        paper_observation=(
            "INV/INV+ time out at 210K edges, INC/INC+ at 310K; TRIC/TRIC+ finish; "
            "TRIC and TRIC+ improve over Neo4j by 77.01% and 92.86%."
        ),
        expected_shape="Inverted-index baselines hit the budget first; TRIC+ finishes.",
    ),
    "fig13a": FigureSpec(
        figure="Figure 13(a)",
        dataset="SNB (10M edges)",
        varied="graph size",
        paper_observation=(
            "Only TRIC+ completes the 10M-edge stream; TRIC times out at 5.47M edges "
            "and Neo4j at 4.3M."
        ),
        expected_shape="TRIC+ lowest and completes; TRIC and GraphDB exhaust the budget.",
    ),
    "fig13b": FigureSpec(
        figure="Figure 13(b)",
        dataset="SNB",
        varied="query database size during insertion",
        paper_observation=(
            "Per-query indexing time is highest for the first batch (structure "
            "initialisation) and drops as queries share structure; all algorithms "
            "index queries in sub-millisecond to millisecond time."
        ),
        expected_shape="First batch slowest; later batches cheaper and similar across engines.",
    ),
    "fig13c": FigureSpec(
        figure="Figure 13(c)",
        dataset="SNB, TAXI, BioGRID",
        varied="dataset",
        paper_observation=(
            "TRIC/INV/INC have the lowest footprint, the caching variants slightly "
            "more, Neo4j the most (443–590MB vs ~200–310MB)."
        ),
        expected_shape="Non-caching < caching variants; the graph database carries extra store overhead.",
    ),
    "fig14a": FigureSpec(
        figure="Figure 14(a)",
        dataset="TAXI",
        varied="graph size (100K–1M edges)",
        paper_observation=(
            "INV/INV+ time out at 210K/300K edges and INC/INC+ at 220K/360K; TRIC and "
            "TRIC+ improve over Neo4j by 59.68% and 81.76%."
        ),
        expected_shape="Same ordering as SNB; baselines exhaust the budget before TRIC.",
    ),
    "fig14b": FigureSpec(
        figure="Figure 14(b)",
        dataset="BioGRID",
        varied="graph size (10K–100K edges)",
        paper_observation=(
            "Single edge/vertex type: every update affects the whole query database; "
            "INV/INV+/INC time out at 50K edges, INC+ at 60K; TRIC/TRIC+ finish."
        ),
        expected_shape="Stress test: baselines time out early, TRIC-family survives.",
    ),
    "fig14c": FigureSpec(
        figure="Figure 14(c)",
        dataset="BioGRID (1M edges)",
        varied="graph size",
        paper_observation=(
            "TRIC and TRIC+ achieve the lowest answering times; Neo4j exceeds the time "
            "threshold at 550K edges."
        ),
        expected_shape="TRIC/TRIC+ complete; GraphDB exhausts the budget.",
    ),
}
