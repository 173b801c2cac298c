"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest gradbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402

bootstrap.prepare()

from lora_kernels import exact  # noqa: E402
from lora_kernels.attention import adapted_weight  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SIZES = {"train-approx-L16k": 200, "fresh-general-L4k": 150, "train-exact-L2k": 120}
SMALL = {
    name: dataclasses.replace(wl, L=SIZES[name], checks=2)
    for name, wl in workloads.WORKLOADS.items()
}
BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())

# Spans each gradient call emits, with the calls per span.
EXPECTED = {
    "approx-special": {
        "lowrank.top": 1, "lowrank.approx_f_poly": 1, "lowrank.feature_map": 2,
        "lowrank.approx_q": 1, "lowrank.approx_p1": 1, "lowrank.approx_p2": 1,
    },
    "approx-general": {
        "lowrank.top": 1, "attention.compose_general_constants": 1,
        "lowrank.approx_f_poly": 2, "lowrank.feature_map": 4,
        "lowrank.approx_q": 2, "lowrank.approx_p1": 2, "lowrank.approx_p2": 2,
    },
    "exact-special": {
        "exact.top": 1, "attention.scores": 1, "attention.softmax_rows": 1,
        "attention.residual_from_f": 1, "attention.q_from_c": 1, "exact.split_p": 1,
    },
}


def test_reference_matches_dense_exact():
    s = workloads.setup(SMALL["train-exact-L2k"], seed=3)
    inst, adp, Wstar = s.warm
    W = adapted_weight(Wstar, adp)
    want = exact.grad_wrt_W(inst, W)
    got = reference.grad_W(inst.C1, W, inst.C2, inst.C3, inst.Y, block=16)
    assert reference.rel_err([got], [want]) <= 1e-12
    pair = exact.grad_adapters_special(inst, Wstar, adp)
    assert reference.rel_err(s.reference(s.warm), [pair.GA, pair.GB]) <= 1e-12

    g = workloads.setup(SMALL["fresh-general-L4k"], seed=3)
    pq, pk = exact.grad_adapters_general(*g.warm)
    want = [pq.GA, pq.GB, pk.GA, pk.GB]
    assert reference.rel_err(g.reference(g.warm), want) <= 1e-12


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_call_emits_every_stage(name):
    wl = SMALL[name]
    trace = tracer.Tracer()
    with trace:
        s = workloads.setup(wl, seed=5)
        trace.call(wl.top, s.grad, s.warm)
    counts = {}
    for sp in trace.spans:
        per = counts.setdefault(sp.call, {})
        per[sp.name] = per.get(sp.name, 0) + 1
    counts = list(counts.values())
    assert counts[-1] == EXPECTED[wl.path]
    assert counts[:-1] == ([] if wl.fresh else [{"harness.gen_instance": 1}])
    assert trace.spans[-1].name == wl.top
    tracer.check_nesting(trace.spans)


def test_trace_clock_rejects_spans_off_the_loop_clock():
    s = workloads.setup(SMALL["train-approx-L16k"], seed=5)
    s.grad(s.warm)
    trace = tracer.Tracer()
    with trace:
        loop = run.closed_loop(s, 0.2, trace)
    self_ms, loop_ms, share = run.trace_clock(trace.spans, loop.calls)
    assert self_ms <= loop_ms and 0 < share < 1

    child = next(sp for sp in trace.spans if sp.parent is not None)
    late = dataclasses.replace(child, end=child.end + 1.0)
    with pytest.raises(ValueError):
        run.trace_clock([late if sp is child else sp for sp in trace.spans], loop.calls)

    roots = [sp for sp in trace.spans if sp.parent is None]
    short = {id(sp): dataclasses.replace(sp, start=(sp.start + sp.end) / 2) for sp in roots}
    with pytest.raises(ValueError):
        run.trace_clock([short.get(id(sp), sp) for sp in trace.spans], loop.calls)


def test_every_named_stage_and_workload_is_declared():
    assert set().union(*EXPECTED.values()) == set(run.STAGES)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def main_result(monkeypatch, capsys, name, trace):
    monkeypatch.setattr(workloads, "WORKLOADS", SMALL)
    monkeypatch.setattr(run, "PROBE_SECONDS", 0.0)
    monkeypatch.setattr(run, "MIN_PROBES", run.ROUNDS)
    run.main(["--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_metric_printed_with_its_unit(monkeypatch, capsys, name, trace):
    report, result = main_result(monkeypatch, capsys, name, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert f"gradbench: {m['name']} = {value} {m['unit']}" in report
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_gate_fails_on_perturbed_gradient(monkeypatch, capsys):
    good = workloads.Setup.grad

    def perturbed(self, inp):
        grads = good(self, inp)
        scale = 1.0 + max(np.abs(g).max() for g in grads)
        grads[0] = grads[0] + 0.1 * scale
        return grads

    monkeypatch.setattr(workloads.Setup, "grad", perturbed)
    _, result = main_result(monkeypatch, capsys, "train-approx-L16k", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
