"""The names and call signatures the benchmark's tracer patches and reads.

`perfbench/tracing.py` wraps the functions listed in its TRACED table and
reads leading arguments of two of them by position, so renaming or
reordering any of them breaks the benchmark without failing a library test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from conftest import capped_state, random_state
from qimgload import cli
from qimgload.circuit import LayeredCircuit
from qimgload.compiler import grow_and_optimize, iterative_construct, sweep_optimize
from qimgload.simulator import apply_gate_dense

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracing):
    assert tracing.TRACED
    for module, function in tracing.TRACED:
        target = importlib.import_module(f"qimgload.{module}")
        assert callable(getattr(target, function, None)), f"qimgload.{module}.{function}"


def test_no_traced_function_is_a_generator(tracing):
    # a generator function returns before its body runs, so its span
    # would close empty and its self time would read zero
    for module, function in tracing.TRACED:
        target = getattr(importlib.import_module(f"qimgload.{module}"), function)
        assert not inspect.isgeneratorfunction(target), f"qimgload.{module}.{function}"


@pytest.mark.parametrize(
    "function, leading",
    [
        (sweep_optimize, ["circuit", "target", "n_sweeps", "trace"]),
        (apply_gate_dense, ["vec", "matrix", "site", "n_qubits"]),
    ],
    ids=["sweep_optimize", "apply_gate_dense"],
)
def test_counted_arguments_keep_their_positions(function, leading):
    assert list(inspect.signature(function).parameters)[: len(leading)] == leading


def test_sweep_counter_reads_all_gates():
    assert callable(LayeredCircuit.all_gates)


def test_sweep_counter_sees_one_record_per_sweep(rng):
    # the tracer counts sweeps as the growth of len(trace.records) across a
    # sweep_optimize call, reading the trace it passed in and the one returned
    target = capped_state(random_state(rng, 5), 4)
    circuit, trace = iterative_construct(target, 2)
    before = len(trace.records)
    _, returned = sweep_optimize(circuit, target, 3, trace)
    assert returned is trace
    assert len(trace.records) == before + 3
    _, grown = grow_and_optimize(target, 2, 4)
    assert len(grown.records) == 8


def test_simulate_calls_the_traced_writers_once_each(tmp_path, monkeypatch):
    # simulator.state_to_csv_s and histogram_to_csv_s time the calls that
    # cmd_simulate makes through the names cli binds the writers to
    calls = []
    for name in ("state_to_csv", "histogram_to_csv"):
        writer = getattr(cli, name)

        def counted(*args, name=name, writer=writer):
            calls.append(name)
            return writer(*args)

        monkeypatch.setattr(cli, name, counted)
    out = str(tmp_path)
    assert cli.main(["compile", "--image", "builtin:digit", "--target-l", "4", "--depth", "1",
                     "--method", "iterative", "--out-dir", out]) == 0
    assert cli.main(["simulate", "--circuit", f"{out}/circuit.json", "--out-dir", out]) == 0
    assert sorted(calls) == ["histogram_to_csv", "state_to_csv"]
