"""Data-structure substrate: heaps, sorted indexes, tries."""

from .heap import AddressableHeap
from .sorted_list import SortedList
from .trie import RelationTrie

__all__ = [
    "AddressableHeap",
    "SortedList",
    "RelationTrie",
]
