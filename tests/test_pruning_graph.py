"""Unit tests for the pruning-dependency graph validator."""

import os
import subprocess
import sys
from graphlib import CycleError
from pathlib import Path

import numpy as np
import pytest

from repro.models import (alexnet, googlenet, lenet, mobilenet, resnet20,
                          vgg11, vgg16)
from repro.pruning import (build_pruning_graph, describe_graph, prune_unit,
                           validate_units)
from repro.pruning.units import ConcatLayout, Consumer, ConvUnit, DepthwiseTie
from repro.nn import Conv2d


def all_models():
    rng = lambda: np.random.default_rng(0)
    return [
        lenet(num_classes=4, input_size=12, rng=rng()),
        alexnet(num_classes=4, input_size=12, rng=rng()),
        vgg11(num_classes=4, input_size=12, width_multiplier=0.125, rng=rng()),
        vgg16(num_classes=4, input_size=12, width_multiplier=0.125, rng=rng()),
        resnet20(num_classes=4, width_multiplier=0.25, rng=rng()),
        googlenet(num_classes=4, width_multiplier=0.25, rng=rng()),
        mobilenet(num_classes=4, width_multiplier=0.5, rng=rng()),
    ]


class TestValidation:
    @pytest.mark.parametrize("model", all_models(),
                             ids=lambda m: type(m).__name__)
    def test_every_model_is_consistent(self, model):
        assert validate_units(model.prune_units()) == []

    @pytest.mark.parametrize("model", all_models(),
                             ids=lambda m: type(m).__name__)
    def test_still_consistent_after_surgery(self, model):
        units = model.prune_units()
        unit = units[0]
        mask = np.zeros(unit.num_maps, dtype=bool)
        mask[: max(1, unit.num_maps // 2)] = True
        prune_unit(unit, mask)
        assert validate_units(model.prune_units()) == []

    def test_detects_width_mismatch(self):
        rng = np.random.default_rng(0)
        producer = Conv2d(3, 8, 3, rng=rng)
        consumer = Conv2d(16, 4, 3, rng=rng)  # wrong: expects 16, gets 8
        unit = ConvUnit("bad", producer, consumers=[Consumer(consumer)])
        problems = validate_units([unit])
        assert any("expects 16 channels" in p for p in problems)

    def test_detects_missing_consumers(self):
        rng = np.random.default_rng(0)
        unit = ConvUnit("orphan", Conv2d(3, 8, 3, rng=rng))
        assert any("no consumers" in p for p in validate_units([unit]))

    def test_detects_shared_consumer(self):
        rng = np.random.default_rng(0)
        shared = Conv2d(8, 4, 3, rng=rng)
        a = ConvUnit("a", Conv2d(3, 8, 3, rng=rng),
                     consumers=[Consumer(shared)])
        b = ConvUnit("b", Conv2d(3, 8, 3, rng=rng),
                     consumers=[Consumer(shared)])
        problems = validate_units([a, b])
        assert any("already consumed" in p for p in problems)

    def test_slotted_sharing_through_one_layout_is_legal(self):
        # Two branches feeding the same consumer through distinct slots
        # of one shared ConcatLayout is the Inception wiring — it must
        # validate clean, not trip the shared-consumer check.
        rng = np.random.default_rng(0)
        layout = ConcatLayout([8, 8])
        shared = Conv2d(16, 4, 3, rng=rng)
        a = ConvUnit("a", Conv2d(3, 8, 3, rng=rng),
                     consumers=[Consumer(shared, layout=layout, slot=0)])
        b = ConvUnit("b", Conv2d(3, 8, 3, rng=rng),
                     consumers=[Consumer(shared, layout=layout, slot=1)])
        assert validate_units([a, b]) == []

    def test_detects_unknown_producer_for_layout_slot(self):
        # A consumer referencing a layout slot no given unit produces is
        # a clear error, not a silent pass (or a KeyError): the missing
        # branch's surgery would mis-slice every consumer.
        rng = np.random.default_rng(0)
        layout = ConcatLayout([8, 8])
        shared = Conv2d(16, 4, 3, rng=rng)
        a = ConvUnit("a", Conv2d(3, 8, 3, rng=rng),
                     consumers=[Consumer(shared, layout=layout, slot=0)])
        problems = validate_units([a])
        assert any("has no producing unit" in p and "unknown producer" in p
                   for p in problems)

    def test_detects_slot_width_mismatch(self):
        rng = np.random.default_rng(0)
        layout = ConcatLayout([4, 8])  # slot 0 is stale: producer has 8
        shared = Conv2d(12, 4, 3, rng=rng)
        a = ConvUnit("a", Conv2d(3, 8, 3, rng=rng),
                     consumers=[Consumer(shared, layout=layout, slot=0)])
        b = ConvUnit("b", Conv2d(3, 8, 3, rng=rng),
                     consumers=[Consumer(shared, layout=layout, slot=1)])
        problems = validate_units([a, b])
        assert any("slot 0 records 4 channels" in p for p in problems)

    def test_detects_slot_out_of_range(self):
        rng = np.random.default_rng(0)
        layout = ConcatLayout([8])
        shared = Conv2d(8, 4, 3, rng=rng)
        a = ConvUnit("a", Conv2d(3, 8, 3, rng=rng),
                     consumers=[Consumer(shared, layout=layout, slot=3)])
        problems = validate_units([a])
        assert any("outside the 1-slot" in p for p in problems)

    def test_detects_non_depthwise_tie(self):
        rng = np.random.default_rng(0)
        unit = ConvUnit("a", Conv2d(3, 8, 3, rng=rng),
                        tied=[DepthwiseTie(Conv2d(8, 8, 3, rng=rng))],
                        consumers=[Consumer(Conv2d(8, 4, 3, rng=rng))])
        problems = validate_units([unit])
        assert any("tied conv is not depthwise" in p for p in problems)

    def test_detects_tie_width_mismatch(self):
        rng = np.random.default_rng(0)
        stale = Conv2d(4, 4, 3, groups=4, rng=rng)  # producer has 8
        unit = ConvUnit("a", Conv2d(3, 8, 3, rng=rng),
                        tied=[DepthwiseTie(stale)],
                        consumers=[Consumer(Conv2d(8, 4, 3, rng=rng))])
        problems = validate_units([unit])
        assert any("tied depthwise conv has 4 filters" in p
                   for p in problems)


class TestGraph:
    def test_graph_structure_vgg(self):
        model = vgg11(num_classes=4, input_size=12, width_multiplier=0.125,
                      rng=np.random.default_rng(0))
        graph = build_pruning_graph(model.prune_units())
        order = graph.topological_order()  # raises CycleError if cyclic
        assert sorted(order) == sorted(graph.nodes)
        position = {name: i for i, name in enumerate(order)}
        assert all(position[u] < position[v] for u, v in graph.edges)
        # A chain: each unit has exactly one successor.
        units = model.prune_units()
        for unit in units:
            assert len(graph.successors(unit.name)) == 1

    def test_terminal_nodes_for_heads(self):
        model = lenet(num_classes=4, input_size=12,
                      rng=np.random.default_rng(0))
        graph = build_pruning_graph(model.prune_units())
        terminals = [n for n, d in graph.nodes.items()
                     if d.get("terminal")]
        assert len(terminals) == 1  # the classifier Linear

    def test_describe_mentions_every_unit(self):
        model = lenet(num_classes=4, input_size=12,
                      rng=np.random.default_rng(0))
        text = describe_graph(model.prune_units())
        assert "conv1" in text
        assert "conv2" in text
        assert "maps]" in text

    def test_concat_nodes_carry_slotted_branch_edges(self):
        model = googlenet(num_classes=4, width_multiplier=0.25,
                          rng=np.random.default_rng(0))
        units = model.prune_units()
        graph = build_pruning_graph(units)
        concats = [n for n, d in graph.nodes.items()
                   if d.get("kind") == "concat"]
        assert len(concats) == 6  # one per Inception block
        for node in concats:
            branches = graph.predecessors(node)
            slots = sorted(graph.edges[src, node]["slot"]
                           for src in branches)
            assert slots == [0, 1, 2, 3]
            # The concat's width is the union of its branch widths.
            branch_total = sum(graph.nodes[src]["maps"] for src in branches)
            assert graph.nodes[node]["maps"] == branch_total
        text = describe_graph(units)
        assert "<concat>" in text
        assert "(slot " in text

    def test_depthwise_nodes_hang_off_their_producers(self):
        model = mobilenet(num_classes=4, width_multiplier=0.5,
                          rng=np.random.default_rng(0))
        units = model.prune_units()
        graph = build_pruning_graph(units)
        depthwise = [n for n, d in graph.nodes.items()
                     if d.get("kind") == "depthwise"]
        assert len(depthwise) == 6  # one per DepthwiseSeparable block
        for node in depthwise:
            producer, = graph.predecessors(node)
            assert graph.edges[producer, node].get("tied") is True
            assert graph.nodes[node]["maps"] == graph.nodes[producer]["maps"]
        assert "<depthwise>" in describe_graph(units)

    def test_cycle_is_a_problem(self):
        rng = np.random.default_rng(0)
        conv_a, conv_b = Conv2d(4, 4, 3, rng=rng), Conv2d(4, 4, 3, rng=rng)
        a = ConvUnit("a", conv=conv_a, consumers=[Consumer(conv_b)])
        b = ConvUnit("b", conv=conv_b, consumers=[Consumer(conv_a)])
        with pytest.raises(CycleError):
            build_pruning_graph([a, b]).topological_order()
        assert validate_units([a, b]) == ["unit graph contains a cycle"]

    def test_import_leaves_networkx_out(self):
        src = Path(__file__).resolve().parent.parent / "src"
        probe = ("import sys, repro, repro.pruning, repro.cli; "
                 "print('networkx' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"
