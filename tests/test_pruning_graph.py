"""Unit tests for the pruning-dependency graph validator."""

import os
import subprocess
import sys
from graphlib import CycleError
from pathlib import Path

import numpy as np
import pytest

from repro.models import alexnet, lenet, resnet20, vgg11, vgg16
from repro.pruning import (build_pruning_graph, describe_graph, prune_unit,
                           validate_units)
from repro.pruning.units import Consumer, ConvUnit
from repro.nn import Conv2d


def all_models():
    rng = lambda: np.random.default_rng(0)
    return [
        lenet(num_classes=4, input_size=12, rng=rng()),
        alexnet(num_classes=4, input_size=12, rng=rng()),
        vgg11(num_classes=4, input_size=12, width_multiplier=0.125, rng=rng()),
        vgg16(num_classes=4, input_size=12, width_multiplier=0.125, rng=rng()),
        resnet20(num_classes=4, width_multiplier=0.25, rng=rng()),
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
