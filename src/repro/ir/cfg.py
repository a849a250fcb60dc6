"""Control-flow graph utilities over method bodies.

The PVPG builder processes blocks in reverse postorder (Appendix B.4);
:func:`reverse_postorder` computes that order alone, and
:class:`ControlFlowGraph` adds successor/predecessor maps and back edges
(which identify loop merges) for the validator and the lint.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.blocks import BasicBlock
from repro.ir.method import Method


def reverse_postorder(method: Method) -> List[BasicBlock]:
    """The blocks reachable from the entry, in reverse postorder (entry first).

    A depth-first search that takes each block's successors in block-end
    order (``then`` before ``else``), iterative so generated programs hit
    no recursion limit.  A jump to a block the method lacks raises
    ``KeyError``.
    """
    blocks = method.block_map()
    entry = method.entry_block
    visited = {entry.name}
    postorder: List[BasicBlock] = []
    stack = [(entry, iter(entry.successor_names()))]
    while stack:
        block, successors = stack[-1]
        for name in successors:
            if name not in visited:
                child = blocks.get(name)
                if child is None:
                    raise KeyError(
                        f"block {block.name!r} jumps to undefined block "
                        f"{name!r} in {method.qualified_name}")
                visited.add(name)
                stack.append((child, iter(child.successor_names())))
                break
        else:
            stack.pop()
            postorder.append(block)
    postorder.reverse()
    return postorder


class ControlFlowGraph:
    """Successor/predecessor structure of a method body."""

    def __init__(self, method: Method):
        self.method = method
        self.blocks: Dict[str, BasicBlock] = method.block_map()
        self.successors: Dict[str, List[str]] = {
            name: block.successor_names() for name, block in self.blocks.items()
        }
        self.predecessors: Dict[str, List[str]] = {name: [] for name in self.blocks}
        for name, succs in self.successors.items():
            for succ in succs:
                if succ not in self.predecessors:
                    raise KeyError(
                        f"block {name!r} jumps to undefined block {succ!r} "
                        f"in {method.qualified_name}"
                    )
                self.predecessors[succ].append(name)
        self._rpo: List[str] = [
            block.name for block in reverse_postorder(method)]
        self._back_edges: Set[Tuple[str, str]] = self._compute_back_edges()

    # ------------------------------------------------------------------ #
    def _compute_back_edges(self) -> Set[Tuple[str, str]]:
        order = {name: index for index, name in enumerate(self._rpo)}
        back_edges: Set[Tuple[str, str]] = set()
        for source, succs in self.successors.items():
            if source not in order:
                continue
            for target in succs:
                if target in order and order[target] <= order[source]:
                    back_edges.add((source, target))
        return back_edges

    # ------------------------------------------------------------------ #
    @property
    def reverse_postorder(self) -> List[str]:
        """Reachable block names in reverse postorder (entry first)."""
        return list(self._rpo)

    def reverse_postorder_blocks(self) -> List[BasicBlock]:
        return [self.blocks[name] for name in self._rpo]

    @property
    def back_edges(self) -> Set[Tuple[str, str]]:
        """Edges ``(source, target)`` where target precedes source in RPO."""
        return set(self._back_edges)

    def is_back_edge(self, source: str, target: str) -> bool:
        return (source, target) in self._back_edges

    @property
    def has_loops(self) -> bool:
        return bool(self._back_edges)

    def unreachable_blocks(self) -> List[str]:
        return [name for name in self.blocks if name not in set(self._rpo)]
