"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import client  # noqa: E402
import entcover.cli  # noqa: E402
import entcover.exact  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = client.load_workloads()


def tiny(spec: dict) -> dict:
    """The workload with one instance per stratum."""
    return dict(spec, strata=[dict(s, count=1) for s in spec["strata"]])


def tiny_client(name: str, tmp_path) -> client.Client:
    spec = tiny(WORKLOADS[name])
    client.write_instances(name, client.generate(name, spec, 7), str(tmp_path))
    _, pool = client.read_instances(str(tmp_path))
    return client.Client(spec, pool)


def test_metric_names_and_units():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
    for w in BENCH["workloads"]:
        assert NAME.match(w["name"]) and w["name"] in WORKLOADS
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(name, tmp_path):
    c = tiny_client(name, tmp_path)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = client.run(str(tmp_path), 0.0, trace, None)
        assert result["failed"] == 0
        # with no time to spare, an untraced run makes exactly one pass
        assert result["attempted"] == (1 if trace else len(c.pool))
        measured = set(result["metrics"]) | ({"setup_s"} if not trace else set())
        # a tiny pool has too few ops for a tail percentile
        expected = {m["name"] for m in BENCH[kind]} - {"op_tail_ms"}
        assert measured == expected


def test_tail_needs_ten_ops_beyond_its_percentile():
    spec = {"tail_percentile": 90}
    records = [(0, k / 1000.0, 0, 0.0) for k in range(1, 100)]
    assert "op_tail_ms" not in client.end_to_end(spec, records, 1.0)
    records.append((0, 0.1, 0, 0.0))
    tail = client.end_to_end(spec, records, 1.0)["op_tail_ms"]
    assert 90.0 <= tail <= 91.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_percentile_is_the_highest_one_pass_supports(name):
    """A run makes at least one pass over the pool, so the pool size is the
    fewest samples op_tail_ms is taken from."""
    spec = WORKLOADS[name]
    ops = sum(s["count"] for s in spec["strata"])
    pct = spec["tail_percentile"]
    assert ops * (100 - pct) >= 1000 > ops * (100 - pct - 1)


def test_result_line_follows_benchmark_json():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "greedy-scale", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in BENCH[kind]]
        for m in BENCH[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "greedy-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_instances():
    for name, spec in WORKLOADS.items():
        spec = tiny(spec)
        assert client.generate(name, spec, 5) == client.generate(name, spec, 5)
        assert client.generate(name, spec, 5) != client.generate(name, spec, 6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_ops_agree(name, tmp_path):
    c = tiny_client(name, tmp_path)
    orig = entcover.cli.exact_cover
    for idx in range(len(c.pool)):
        c.op(idx)
    tracer = Tracer()
    tracer.install()
    try:
        for idx in range(len(c.pool)):
            c.op(idx)
    finally:
        tracer.remove()
    assert entcover.cli.exact_cover is orig is entcover.exact.exact_cover
    assert tracer.spans
    # a second, identical output would have been stored as a new entry
    assert all(len(outputs) == 1 for outputs in c.outputs)
    assert all(all(v) for v in client.verdicts(c))


def _first_output(name, tmp_path, kind):
    c = tiny_client(name, tmp_path)
    idx = next(i for i, (_, k) in enumerate(c.pool) if k == kind)
    c.op(idx)
    with open(c.pool[idx][0], "rb") as fh:
        inst = client.instances.parse_instance(fh.read())
    return c.spec, inst, c.outputs[idx][0]


@pytest.mark.parametrize("kind", ["mesc", "meo", "mest"])
def test_checks_reject_a_wrong_verify_report(kind, tmp_path):
    spec, inst, (code, report) = _first_output("verify-desk", tmp_path, kind)
    assert client.check_output(spec, inst, kind, (code, report))
    off = dict(report, optimal_entropy_bits=report["optimal_entropy_bits"] + 1e-6)
    assert not client.check_output(spec, inst, kind, (code, off))
    assert not client.check_output(spec, inst, kind, (1, report))


@pytest.mark.parametrize("kind", ["mesc", "meo", "mest"])
def test_checks_reject_a_wrong_greedy_cover(kind, tmp_path):
    spec, inst, (code, report) = _first_output("greedy-cli", tmp_path, kind)
    assert client.check_output(spec, inst, kind, (code, report))
    cover = list(report["cover"])
    j = report["order"][0]
    k = next(i for i in range(len(cover)) if i != j)
    cover[j] -= 1
    cover[k] += 1
    assert not client.check_output(spec, inst, kind, (code, dict(report, cover=cover)))


def test_checks_reject_a_lazy_trace_that_differs(tmp_path):
    spec, inst, (naive, lazy, table) = _first_output("greedy-scale", tmp_path, "meo")
    assert client.check_output(spec, inst, "meo", (naive, lazy, table))
    assert not client.check_output(spec, inst, "meo", (naive, naive.__class__(
        lazy.order[::-1], lazy.deltas[::-1], lazy.prefixes, lazy.rank, lazy.cover),
        table))
