"""Pruning-dependency graph: validation and inspection of unit wiring.

A model's ``prune_units()`` encodes which downstream layers consume each
prunable convolution's feature maps.  Getting this wiring wrong produces
silently broken surgery (mismatched channel counts or orphaned
consumers), so this module builds an explicit digraph of producers and
consumers (:class:`PruningGraph`) and checks its consistency:

* every consumer's input width matches its producer's output width
  (times the flatten ``spatial`` factor for linear consumers);
* no convolution is consumed by two different prunable units (a unit's
  surgery would corrupt the other's bookkeeping);
* units form a DAG in forward order.

The graph has a node per unit and a terminal node per consumer that is
not itself a unit's conv.  ``describe_graph`` renders the wiring as
text for debugging new models.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter

from ..nn.modules import Conv2d, Linear
from .units import ConvUnit

__all__ = ["PruningGraph", "build_pruning_graph", "validate_units",
           "describe_graph"]


class PruningGraph:
    """A small attributed digraph, the return type of ``build_pruning_graph``.

    ``nodes`` maps each node name to its attribute dict and ``edges``
    maps each ``(source, target)`` pair to its attribute dict, both in
    insertion order.  ``successors``/``predecessors`` list a node's
    neighbours in edge-insertion order.  Adding an existing node or edge
    again updates its attributes.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, dict] = {}
        self.edges: dict[tuple[str, str], dict] = {}

    def add_node(self, name: str, **attrs) -> None:
        self.nodes.setdefault(name, {}).update(attrs)

    def add_edge(self, source: str, target: str, **attrs) -> None:
        self.add_node(source)
        self.add_node(target)
        self.edges.setdefault((source, target), {}).update(attrs)

    def successors(self, name: str) -> list[str]:
        return [target for source, target in self.edges if source == name]

    def predecessors(self, name: str) -> list[str]:
        return [source for source, target in self.edges if target == name]

    def topological_order(self) -> list[str]:
        """Nodes in forward order; raises ``graphlib.CycleError``.

        Ties break by node, then edge, insertion order.
        """
        sorter = TopologicalSorter()
        for name in self.nodes:
            sorter.add(name)
        for source, target in self.edges:
            sorter.add(target, source)
        return list(sorter.static_order())


def build_pruning_graph(units: list[ConvUnit]) -> PruningGraph:
    """Digraph of units plus terminal consumer nodes.

    Node names are unit names; consumers that are not themselves a
    unit's conv become ``<unit>-><ClassName>`` terminal nodes.
    Consumption edges carry the ``spatial`` factor.
    """
    graph = PruningGraph()
    conv_to_unit = {id(unit.conv): unit.name for unit in units}
    for unit in units:
        graph.add_node(unit.name, maps=unit.num_maps,
                       kind=type(unit.conv).__name__)
    for unit in units:
        for consumer in unit.consumers:
            target = conv_to_unit.get(id(consumer.module))
            if target is None:
                target = f"{unit.name}->{type(consumer.module).__name__}"
                graph.add_node(target, terminal=True)
            graph.add_edge(unit.name, target, spatial=consumer.spatial)
    return graph


def validate_units(units: list[ConvUnit]) -> list[str]:
    """Return a list of wiring problems (empty when consistent)."""
    problems: list[str] = []
    # consumer module id -> owning unit name
    seen_consumers: dict[int, str] = {}
    for unit in units:
        produced = unit.conv.out_channels
        if unit.bn is not None and unit.bn.num_features != produced:
            problems.append(
                f"{unit.name}: batch norm tracks {unit.bn.num_features} "
                f"features but the conv produces {produced}")
        if not unit.consumers:
            problems.append(f"{unit.name}: has no consumers")
        for consumer in unit.consumers:
            module = consumer.module
            owner = seen_consumers.get(id(module))
            if owner is not None and owner != unit.name:
                problems.append(
                    f"{unit.name}: consumer {type(module).__name__} already "
                    f"consumed by {owner}")
            seen_consumers[id(module)] = unit.name
            if isinstance(module, Conv2d):
                if module.in_channels != produced:
                    problems.append(
                        f"{unit.name}: conv consumer expects "
                        f"{module.in_channels} channels, producer has "
                        f"{produced}")
            elif isinstance(module, Linear):
                if module.in_features != produced * consumer.spatial:
                    problems.append(
                        f"{unit.name}: linear consumer expects "
                        f"{module.in_features} features, producer supplies "
                        f"{produced * consumer.spatial}")
            else:
                problems.append(
                    f"{unit.name}: unsupported consumer type "
                    f"{type(module).__name__}")
    try:
        build_pruning_graph(units).topological_order()
    except CycleError:
        problems.append("unit graph contains a cycle")
    return problems


def describe_graph(units: list[ConvUnit]) -> str:
    """Human-readable rendering of the pruning graph in forward order."""
    graph = build_pruning_graph(units)
    lines = []
    for name in graph.topological_order():
        data = graph.nodes[name]
        if data.get("terminal"):
            continue
        successors = []
        for target in graph.successors(name):
            edge = graph.edges[name, target]
            suffix = f" (x{edge['spatial']})" \
                if edge.get("spatial", 1) != 1 else ""
            successors.append(f"{target}{suffix}")
        lines.append(f"{name} [{data['maps']} maps] -> "
                     + (", ".join(successors) if successors else "(none)"))
    return "\n".join(lines)
