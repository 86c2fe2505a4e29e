import dataclasses
import json
import time

import pytest

from entcover import cli
from entcover.core import Cover, PolymatroidOracle
from entcover.instances import (generate_random, parse_instance,
                                serialize_instance)

MESC = "mesc 3 3\n0 1\n1 2\n2\n"
TRIANGLE = "graph 3 3\n0 1\n0 2\n1 2\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_greedy_json(tmp_path, capsys):
    f = write(tmp_path, "a.mesc", MESC)
    code, out, err = run(capsys, "greedy", f, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == [0, 1]
    assert rep["deltas"] == [2, 1]
    assert rep["cover"] == [2, 1, 0]
    assert rep["cover_valid"] is True
    assert rep["cover_check"] == "witness"
    assert rep["greedy_entropy_bits"] == pytest.approx(0.9182958340544896, abs=1e-10)
    assert "elapsed_seconds" in rep


def test_greedy_elapsed_includes_validity_check(tmp_path, capsys, monkeypatch):
    real = cli.realise_cover

    def slow_realise(inst, kind, trace):
        time.sleep(0.2)
        return real(inst, kind, trace)

    monkeypatch.setattr(cli, "realise_cover", slow_realise)
    f = write(tmp_path, "a.mesc", MESC)
    code, out, _ = run(capsys, "greedy", f, "--json")
    assert code == 0
    assert json.loads(out)["elapsed_seconds"] >= 0.2


@pytest.mark.parametrize("kind", ["mesc", "meo", "mest"])
def test_greedy_above_exhaustive_limit(tmp_path, capsys, kind):
    # m = 40 is past validate_cover's m <= 24 limit; the witness has none
    params = {"m": 40, "n": 80} if kind == "mesc" else {"n_vertices": 40}
    inst = generate_random(kind, 7, **params)
    f = write(tmp_path, f"big.{kind}", serialize_instance(inst).decode())
    code, out, err = run(capsys, "greedy", f, "--kind", kind, "--json")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["cover_valid"] is True
    assert rep["cover_check"] == "witness"
    assert len(rep["cover"]) == 40


def test_greedy_invalid_cover_exit_1(tmp_path, capsys, monkeypatch):
    real = cli.run_greedy

    def tampered(oracle, tie_break="lowest"):
        trace = real(oracle, tie_break=tie_break)  # cover (2, 1, 0)
        # same total, but set 2 covers one element and gets two
        return dataclasses.replace(trace, cover=Cover((1, 0, 2)))

    monkeypatch.setattr(cli, "run_greedy", tampered)
    f = write(tmp_path, "a.mesc", MESC)
    code, out, _ = run(capsys, "greedy", f, "--json")
    rep = json.loads(out)
    assert rep["cover_check"] == "exhaustive"
    assert rep["cover_valid"] is False
    assert rep["violated_subset_mask"] == 0b100
    assert code == 1


def test_greedy_unmatched_cover_above_exhaustive_limit(tmp_path, capsys,
                                                       monkeypatch):
    real = cli.run_greedy

    def tampered(oracle, tie_break="lowest"):
        trace = real(oracle, tie_break=tie_break)
        x = list(trace.cover.x)
        x[trace.order[0]] -= 1
        x[trace.order[1]] += 1
        return dataclasses.replace(trace, cover=Cover(tuple(x)))

    monkeypatch.setattr(cli, "run_greedy", tampered)
    inst = generate_random("meo", 7, n_vertices=40)
    f = write(tmp_path, "big.graph", serialize_instance(inst).decode())
    code, out, _ = run(capsys, "greedy", f, "--json")
    rep = json.loads(out)
    assert rep["cover_check"] == "skipped"
    assert rep["cover_valid"] is None
    assert "violated_subset_mask" not in rep
    assert code == 0  # nothing was checked, so no check failed


def test_greedy_plain_output(tmp_path, capsys):
    f = write(tmp_path, "a.mesc", MESC)
    code, out, err = run(capsys, "greedy", f)
    assert code == 0
    assert "greedy_entropy_bits" in out


def test_greedy_single_set_zero_entropy(tmp_path, capsys):
    f = write(tmp_path, "one.mesc", "mesc 1 4\n0 1 2 3\n")
    code, out, _ = run(capsys, "greedy", f, "--json")
    assert code == 0
    assert json.loads(out)["greedy_entropy_bits"] == 0.0


def test_greedy_triangle_orientation(tmp_path, capsys):
    f = write(tmp_path, "t.graph", TRIANGLE)
    code, out, _ = run(capsys, "greedy", f, "--kind", "meo", "--json")
    assert code == 0
    assert json.loads(out)["greedy_entropy_bits"] == pytest.approx(
        0.9182958340544896, abs=1e-10)


def test_malformed_file(tmp_path, capsys):
    f = write(tmp_path, "bad.mesc", "mesc 2 2\n0 1\n")
    code, out, err = run(capsys, "greedy", f)
    assert code == 2
    assert "line" in err


def test_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, "greedy", str(tmp_path / "nope.mesc"))
    assert code == 2
    assert "cannot read" in err


def test_verify_mesc(tmp_path, capsys):
    f = write(tmp_path, "a.mesc", MESC)
    code, out, _ = run(capsys, "verify", f, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["alpha"] == {"num": 1, "den": 1}
    assert rep["alpha_bound_holds"] is True
    assert rep["unit_alpha_bound_holds"] is True
    assert rep["alpha_bound_slack_bits"] >= 0


def test_verify_mest_beta_fields(tmp_path, capsys):
    f = write(tmp_path, "t.graph", TRIANGLE)
    code, out, _ = run(capsys, "verify", f, "--kind", "mest", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["beta_witness"] == 1
    assert rep["beta_certified"] is True
    assert rep["beta_admissible"] is True
    assert rep["beta_bound_holds"] is True
    assert isinstance(rep["beta_moves"], int)
    assert isinstance(rep["beta_levels"], int)


BIG_MESC = "mesc 17 20\n0 17 18 19\n" + "\n".join(str(i) for i in range(1, 17)) + "\n"


def test_verify_guard_exit_3(tmp_path, capsys):
    f = write(tmp_path, "big.mesc", BIG_MESC)
    code, out, err = run(capsys, "verify", f)
    assert code == 3
    assert "hint" in err


def test_reduce(tmp_path, capsys):
    f = write(tmp_path, "r.mesc", "mesc 2 3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "reduce", f, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["vertices"] == 10
    assert rep["gadget_file"].endswith(".gadget")
    g = parse_instance(open(rep["gadget_file"]).read())
    assert g.n_vertices == 10
    assert g.is_connected()
    assert rep["roles"]["hub"] == 0


def test_reduce_explicit_out(tmp_path, capsys):
    f = write(tmp_path, "r.mesc", "mesc 2 3\n0 1\n1 2\n")
    out_path = str(tmp_path / "gadget.graph")
    code, _, _ = run(capsys, "reduce", f, "--out", out_path, "--json")
    assert code == 0
    assert parse_instance(open(out_path).read()).n_vertices == 10


def test_reduce_rejects_graph_input(tmp_path, capsys):
    f = write(tmp_path, "t.graph", TRIANGLE)
    code, _, err = run(capsys, "reduce", f)
    assert code == 2


def test_gen_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.out")
    b = str(tmp_path / "b.out")
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "--kind", "mest", "--seed", "5",
                         "--out", path)
        assert code == 0
    assert open(a).read() == open(b).read()
    g = parse_instance(open(a).read())
    assert g.is_connected()


def test_gen_mesc_covers_universe(tmp_path, capsys):
    p = str(tmp_path / "m.mesc")
    code, _, _ = run(capsys, "gen", "--kind", "mesc", "--seed", "9",
                     "--sets", "5", "--elements", "8", "--out", p)
    assert code == 0
    inst = parse_instance(open(p).read())
    covered = set()
    for s in inst.sets:
        covered |= s
    assert covered == set(range(8))


def test_gen_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "meo", "--seed", "3")
    assert code == 0
    assert out.startswith("graph ")


def test_batch_seeds(capsys):
    code, out, _ = run(capsys, "batch", "--seeds", "1:3", "--kind", "meo",
                       "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 3
    assert [l["id"] for l in lines] == sorted(l["id"] for l in lines)
    assert all(l["status"] == "ok" for l in lines)


def test_batch_internal_error_keeps_going(capsys, monkeypatch):
    real = cli.exact_cover
    calls = []

    def flaky(oracle):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("invariant broken: test fault")
        return real(oracle)

    monkeypatch.setattr(cli, "exact_cover", flaky)
    code, out, err = run(capsys, "batch", "--seeds", "1:3", "--kind", "mesc",
                         "--json")
    assert code == 1
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert [r["status"] for r in rows] == ["ok", "error-internal", "ok"]
    assert rows[1]["reason"] == "RuntimeError: invariant broken: test fault"
    assert "Traceback" in err


def test_verify_mest_runs_exact_mest_once(tmp_path, capsys, monkeypatch):
    real = cli.exact_mest
    calls = []

    def counted(inst, **kwargs):
        calls.append(1)
        return real(inst, **kwargs)

    monkeypatch.setattr(cli, "exact_mest", counted)
    f = write(tmp_path, "t.graph", TRIANGLE)
    code, _, _ = run(capsys, "verify", f, "--kind", "mest", "--json")
    assert code == 0
    assert len(calls) == 1


def test_verify_mest_builds_one_coefficient_table(tmp_path, capsys, monkeypatch):
    real = cli.coefficients
    calls = []

    def counted(oracle, trace):
        calls.append(1)
        return real(oracle, trace)

    monkeypatch.setattr(cli, "coefficients", counted)
    f = write(tmp_path, "t.graph", TRIANGLE)
    code, _, _ = run(capsys, "verify", f, "--kind", "mest", "--json")
    assert code == 0
    assert len(calls) == 1


def test_verify_mest_builds_one_oracle(tmp_path, capsys, monkeypatch):
    real = PolymatroidOracle.__init__
    calls = []

    def counted(self, ground, fn):
        calls.append(1)
        real(self, ground, fn)

    monkeypatch.setattr(PolymatroidOracle, "__init__", counted)
    inst = generate_random("mest", 3, n_vertices=6)
    f = write(tmp_path, "g.graph", serialize_instance(inst).decode())
    code, out, _ = run(capsys, "verify", f, "--kind", "mest", "--json")
    assert code == 0
    assert json.loads(out)["beta_certified"] is True
    assert len(calls) == 1


def test_verify_mest_uncertified_is_a_bound_violation(tmp_path, capsys,
                                                      monkeypatch):
    # under tie-break "highest", witness 2 of this graph has no certifiable
    # schedule; offered as the only optimum, nothing certifies
    inst = generate_random("mest", 87116, n_vertices=7, extra_edge_prob=0.2)
    real = cli.exact_mest

    def witness_two(graph, **kwargs):
        opt = real(graph, **kwargs)
        return dataclasses.replace(opt, covers=(opt.covers[2],),
                                   solutions=(opt.solutions[2],))

    monkeypatch.setattr(cli, "exact_mest", witness_two)
    f = write(tmp_path, "g.graph", serialize_instance(inst).decode())
    code, out, _ = run(capsys, "verify", f, "--kind", "mest",
                       "--tie-break", "highest", "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["beta_certified"] is False
    assert rep["ok"] is False
    code, out, _ = run(capsys, "batch", "--dir", str(tmp_path), "--kind", "mest",
                       "--tie-break", "highest", "--json")
    assert code == 1
    assert json.loads(out)["status"] == "bound-violation"


def test_batch_seeds_need_kind(capsys):
    code, _, err = run(capsys, "batch", "--seeds", "1:3")
    assert code == 2


def test_batch_seeds_in_seed_order(capsys):
    code, out, _ = run(capsys, "batch", "--seeds", "9999:10000", "--kind",
                       "meo", "--json")
    assert code == 0
    ids = [json.loads(l)["id"] for l in out.strip().splitlines()]
    assert ids == ["meo-9999", "meo-10000"]


def test_batch_dir(tmp_path, capsys):
    write(tmp_path, "b.mesc", MESC)
    write(tmp_path, "a.mesc", "mesc 1 2\n0 1\n")
    code, out, _ = run(capsys, "batch", "--dir", str(tmp_path), "--json")
    assert code == 0
    ids = [json.loads(l)["id"] for l in out.strip().splitlines()]
    assert ids == sorted(ids)
    assert len(ids) == 2


def test_batch_dir_guard_skips(tmp_path, capsys):
    write(tmp_path, "big.mesc", BIG_MESC)
    write(tmp_path, "ok.mesc", MESC)
    code, out, _ = run(capsys, "batch", "--dir", str(tmp_path), "--json")
    assert code == 3
    rows = {json.loads(l)["id"]: json.loads(l) for l in out.strip().splitlines()}
    assert rows["big.mesc"]["status"] == "skipped"
    assert rows["ok.mesc"]["status"] == "ok"


def test_batch_empty_dir(tmp_path, capsys):
    code, out, _ = run(capsys, "batch", "--dir", str(tmp_path))
    assert code == 0
    assert out == ""


def test_unknown_kind_for_mesc_file(tmp_path, capsys):
    f = write(tmp_path, "a.mesc", MESC)
    code, _, err = run(capsys, "greedy", f, "--kind", "mest")
    assert code == 2
