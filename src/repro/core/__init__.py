"""Core contribution: the TRIC / TRIC+ engines and the trie forest."""

from .engine import BatchReport, ContinuousEngine
from .tric import TRICEngine, TRICPlusEngine
from .trie import TrieForest, TrieNode

__all__ = [
    "BatchReport",
    "ContinuousEngine",
    "TRICEngine",
    "TRICPlusEngine",
    "TrieForest",
    "TrieNode",
]
