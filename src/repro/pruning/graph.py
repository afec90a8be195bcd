"""Pruning-dependency graph: validation and inspection of unit wiring.

A model's ``prune_units()`` encodes which downstream layers consume each
prunable convolution's feature maps.  Getting this wiring wrong produces
silently broken surgery (mismatched channel counts or orphaned
consumers), so this module builds an explicit digraph of producers and
consumers (:class:`PruningGraph`) and checks its consistency:

* every consumer's input width matches its producer's output width
  (times the flatten ``spatial`` factor for linear consumers);
* no convolution is consumed by two different prunable units (a unit's
  surgery would corrupt the other's bookkeeping) — unless each
  consumption goes through a distinct slot of one shared
  :class:`~repro.pruning.units.ConcatLayout`, the branchy case where
  the sharing is exactly the point;
* every slot of every referenced concat layout has exactly one
  producing unit among the given units, and the layout's total width
  matches each consumer's input width;
* tied depthwise convolutions really are depthwise and track the
  producer's width one-for-one;
* units form a DAG in forward order.

Beyond unit nodes and terminal consumer nodes, the graph has
first-class **concat** nodes (one per shared layout, fed by its branch
units with ``slot``-annotated edges) and **depthwise** nodes (one per
:class:`~repro.pruning.units.DepthwiseTie`, hanging off the producing
unit with a ``tied`` edge).  ``describe_graph`` renders the wiring as
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


def _layout_names(units: list[ConvUnit]) -> dict[int, str]:
    """Stable display name per distinct ConcatLayout (discovery order)."""
    names: dict[int, str] = {}
    for unit in units:
        for consumer in unit.consumers:
            if consumer.layout is not None \
                    and id(consumer.layout) not in names:
                names[id(consumer.layout)] = f"concat{len(names)}"
    return names


def build_pruning_graph(units: list[ConvUnit]) -> PruningGraph:
    """Digraph of units plus concat, depthwise and terminal consumer nodes.

    Node names are unit names; each distinct
    :class:`~repro.pruning.units.ConcatLayout` becomes one ``concatN``
    node (kind ``"concat"``) fed by its branch units over
    ``slot``-annotated edges, each
    :class:`~repro.pruning.units.DepthwiseTie` becomes a
    ``<unit>~depthwise`` node (kind ``"depthwise"``) behind a ``tied``
    edge, and consumers that are not themselves a unit's conv become
    ``<source>-><ClassName>`` terminal nodes.  Consumption edges carry
    the ``spatial`` factor.
    """
    graph = PruningGraph()
    conv_to_unit = {id(unit.conv): unit.name for unit in units}
    layout_names = _layout_names(units)
    for unit in units:
        graph.add_node(unit.name, maps=unit.num_maps,
                       kind=type(unit.conv).__name__)
    for unit in units:
        for tie in unit.tied:
            dw_name = f"{unit.name}~depthwise"
            graph.add_node(dw_name, kind="depthwise",
                           maps=tie.conv.out_channels)
            graph.add_edge(unit.name, dw_name, tied=True)
        for consumer in unit.consumers:
            source = unit.name
            if consumer.layout is not None:
                cname = layout_names[id(consumer.layout)]
                if cname not in graph.nodes:
                    graph.add_node(cname, kind="concat",
                                   maps=consumer.layout.total)
                graph.add_edge(unit.name, cname, slot=consumer.slot)
                source = cname
            target = conv_to_unit.get(id(consumer.module))
            if target is None:
                target = f"{source}->{type(consumer.module).__name__}"
                graph.add_node(target, terminal=True)
            graph.add_edge(source, target, spatial=consumer.spatial)
    return graph


def validate_units(units: list[ConvUnit]) -> list[str]:
    """Return a list of wiring problems (empty when consistent)."""
    problems: list[str] = []
    layout_names = _layout_names(units)
    # (module id, layout id or None, slot) -> owning unit name; a module
    # may be consumed by several units only through distinct slots of
    # one shared layout.
    seen_consumers: dict[tuple[int, int | None, int | None], str] = {}
    module_layouts: dict[int, set[int | None]] = {}
    module_names: dict[int, str] = {}
    # (layout id, slot) -> producing unit names (must end up exactly one).
    slot_producers: dict[tuple[int, int], list[str]] = {}
    layouts: dict[int, object] = {}
    layout_consumers: dict[int, list] = {}
    for unit in units:
        produced = unit.conv.out_channels
        if unit.bn is not None and unit.bn.num_features != produced:
            problems.append(
                f"{unit.name}: batch norm tracks {unit.bn.num_features} "
                f"features but the conv produces {produced}")
        for tie in unit.tied:
            dw = tie.conv
            if getattr(dw, "groups", 1) != dw.in_channels \
                    or dw.in_channels != dw.out_channels:
                problems.append(
                    f"{unit.name}: tied conv is not depthwise "
                    f"(groups={getattr(dw, 'groups', 1)}, "
                    f"{dw.in_channels}->{dw.out_channels})")
            elif dw.in_channels != produced:
                problems.append(
                    f"{unit.name}: tied depthwise conv has "
                    f"{dw.in_channels} filters but the producer has "
                    f"{produced} channels")
            if tie.bn is not None and tie.bn.num_features != produced:
                problems.append(
                    f"{unit.name}: tied batch norm tracks "
                    f"{tie.bn.num_features} features but the producer "
                    f"has {produced} channels")
        if not unit.consumers:
            problems.append(f"{unit.name}: has no consumers")
        for consumer in unit.consumers:
            module = consumer.module
            layout = consumer.layout
            lid = id(layout) if layout is not None else None
            if layout is not None:
                layouts[lid] = layout
                layout_consumers.setdefault(lid, []).append(module)
                if consumer.slot is None \
                        or not 0 <= consumer.slot < len(layout.widths):
                    problems.append(
                        f"{unit.name}: consumer slot {consumer.slot} is "
                        f"outside the {len(layout.widths)}-slot "
                        f"{layout_names[lid]}")
                    continue
                slot_producers.setdefault((lid, consumer.slot),
                                          []).append(unit.name)
                if layout.widths[consumer.slot] != produced:
                    problems.append(
                        f"{unit.name}: {layout_names[lid]} slot "
                        f"{consumer.slot} records "
                        f"{layout.widths[consumer.slot]} channels but the "
                        f"producer has {produced}")
                expected = layout.total
            else:
                expected = produced
            key = (id(module), lid, consumer.slot)
            owner = seen_consumers.get(key)
            if owner is not None and owner != unit.name:
                problems.append(
                    f"{unit.name}: consumer {type(module).__name__} already "
                    f"consumed by {owner}")
            seen_consumers[key] = unit.name
            previous = module_layouts.setdefault(id(module), set())
            if previous and lid not in previous:
                problems.append(
                    f"{unit.name}: consumer {type(module).__name__} is "
                    f"consumed through conflicting layouts by "
                    f"{module_names[id(module)]}")
            previous.add(lid)
            module_names[id(module)] = unit.name
            if isinstance(module, Conv2d):
                if module.in_channels != expected:
                    problems.append(
                        f"{unit.name}: conv consumer expects "
                        f"{module.in_channels} channels, producer"
                        f"{' union' if layout is not None else ''} has "
                        f"{expected}")
            elif isinstance(module, Linear):
                if module.in_features != expected * consumer.spatial:
                    problems.append(
                        f"{unit.name}: linear consumer expects "
                        f"{module.in_features} features, producer"
                        f"{' union' if layout is not None else ''} supplies "
                        f"{expected * consumer.spatial}")
            else:
                problems.append(
                    f"{unit.name}: unsupported consumer type "
                    f"{type(module).__name__}")
    # Every slot of every referenced layout needs exactly one producer
    # among the given units — a missing one means a consumer references
    # an unknown producer and its surgery would silently mis-slice.
    for lid, layout in layouts.items():
        for slot in range(len(layout.widths)):
            owners = slot_producers.get((lid, slot), [])
            distinct = sorted(set(owners))
            if not owners:
                problems.append(
                    f"{layout_names[lid]}: slot {slot} "
                    f"({layout.widths[slot]} channels) has no producing "
                    f"unit among the given units (unknown producer)")
            elif len(distinct) > 1:
                problems.append(
                    f"{layout_names[lid]}: slot {slot} is produced by "
                    f"multiple units ({', '.join(distinct)})")
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
            if "slot" in edge:
                suffix = f" (slot {edge['slot']})"
            successors.append(f"{target}{suffix}")
        kind = data.get("kind")
        tag = f" <{kind}>" if kind in ("concat", "depthwise") else ""
        lines.append(f"{name}{tag} [{data['maps']} maps] -> "
                     + (", ".join(successors) if successors else "(none)"))
    return "\n".join(lines)
