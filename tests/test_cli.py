import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest
from conftest import misfit_reversal

from entcover import certify, cli
from entcover.core import Cover, PolymatroidOracle
from entcover.exact import Optimum
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
    assert "cover_check" not in rep
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
    # m = 40 is past validate_cover's m <= 24 limit; the realisation has none
    params = {"m": 40, "n": 80} if kind == "mesc" else {"n_vertices": 40}
    inst = generate_random(kind, 7, **params)
    f = write(tmp_path, f"big.{kind}", serialize_instance(inst).decode())
    code, out, err = run(capsys, "greedy", f, "--kind", kind, "--json")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["cover_valid"] is True
    assert len(rep["cover"]) == 40


@pytest.mark.parametrize("kind", ["mesc", "meo", "mest"])
def test_greedy_past_machine_word(tmp_path, capsys, kind):
    # m = 100: ground sets are unbounded ints, and the witness is linear
    params = {"m": 100, "n": 200} if kind == "mesc" else {"n_vertices": 100}
    inst = generate_random(kind, 11, **params)
    f = write(tmp_path, f"huge.{kind}", serialize_instance(inst).decode())
    code, out, err = run(capsys, "greedy", f, "--kind", kind, "--json")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["cover_valid"] is True
    assert len(rep["cover"]) == 100


def test_greedy_invalid_cover_exit_1(tmp_path, capsys, monkeypatch):
    real = cli.run_greedy

    def tampered(oracle, tie_break="lowest"):
        trace = real(oracle, tie_break=tie_break)  # cover (2, 1, 0)
        # same total, but set 2 covers one element and gets two
        return dataclasses.replace(trace, cover=Cover((1, 0, 2)))

    monkeypatch.setattr(cli, "run_greedy", tampered)
    f = write(tmp_path, "a.mesc", MESC)
    # a cover its realisation does not match is a library fault, never a
    # report; uncaught, it ends the console entry point with exit 1
    with pytest.raises(RuntimeError, match="^invariant broken"):
        cli.main(["greedy", f, "--json"])


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
    # m = 40: the realisation is the proof at every ground-set size
    with pytest.raises(RuntimeError, match="^invariant broken"):
        cli.main(["greedy", f, "--json"])


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


def test_undecodable_file_names_its_line(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_bytes(b"graph 3 2\n0 1\n1 \xff2\n")
    code, out, err = run(capsys, "greedy", str(p), "--kind", "mest")
    assert code == 2
    assert out == ""
    assert err == "error: line 3: byte 0xff is not UTF-8 text (invalid start byte)\n"


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


def test_zero_entropy_reports_print_no_negative_zero(tmp_path, capsys):
    # a one-edge graph: the greedy cover has one nonzero entry
    f = write(tmp_path, "e.graph", "graph 2 1\n0 1\n")
    for kind in ("meo", "mest"):
        code, out, _ = run(capsys, "verify", f, "--kind", kind, "--json")
        assert code == 0
        assert "-0.0" not in out
        assert json.loads(out)["greedy_entropy_bits"] == 0.0
    code, out, _ = run(capsys, "greedy", write(tmp_path, "s.mesc", "mesc 1 2\n0 1\n"),
                       "--json")
    assert code == 0
    assert "-0.0" not in out


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


def test_reduce_unwritable_out_is_an_input_error(tmp_path, capsys):
    f = write(tmp_path, "r.mesc", "mesc 2 3\n0 1\n1 2\n")
    out_path = str(tmp_path / "missing" / "gadget.graph")
    code, out, err = run(capsys, "reduce", f, "--out", out_path, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


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


def test_gen_unwritable_out_is_an_input_error(tmp_path, capsys):
    out_path = str(tmp_path / "missing" / "g.graph")
    code, out, err = run(capsys, "gen", "--kind", "mest", "--seed", "5",
                         "--out", out_path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


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


def test_gen_empty_mesc_names_the_sizes(capsys):
    for flag, count, sizes in (("--sets", "0", "m=0, n=8"),
                               ("--elements", "0", "m=5, n=0"),
                               ("--sets", "-2", "m=-2, n=8")):
        code, out, err = run(capsys, "gen", "--kind", "mesc", "--seed", "1",
                             flag, count)
        assert (code, out) == (2, ""), flag
        assert err == ("error: mesc needs at least one set and one element, "
                       f"got {sizes}\n"), flag


def test_gen_refuses_flags_the_kind_does_not_take(capsys):
    # every flag given reaches generate_random, which refuses another
    # family's parameter and a probability outside [0, 1]
    for argv, msg in (
            (("--kind", "mesc", "--vertices", "30"),
             "error: mesc takes no parameter n_vertices; its parameters "
             "are m, n, density\n"),
            (("--kind", "mest", "--sets", "4"),
             "error: mest takes no parameter m; its parameters are "
             "n_vertices, extra_edge_prob\n"),
            (("--kind", "mesc", "--density", "1.5"),
             "error: density must lie in [0, 1], got 1.5\n"),
            (("--kind", "meo", "--edge-prob", "-1"),
             "error: extra_edge_prob must lie in [0, 1], got -1.0\n")):
        code, out, err = run(capsys, "gen", "--seed", "1", *argv)
        assert (code, out, err) == (2, "", msg), argv


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


def test_verify_mest_runs_exact_cover_once(tmp_path, capsys, monkeypatch):
    real = cli.exact_cover
    calls = []

    def counted(oracle):
        calls.append(1)
        return real(oracle)

    monkeypatch.setattr(cli, "exact_cover", counted)
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
    real = cli.exact_cover

    def witness_two(oracle):
        opt = real(oracle)
        return Optimum(opt.entropy, (opt.covers[2],))

    monkeypatch.setattr(cli, "exact_cover", witness_two)
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


def test_verify_mest_broken_schedule_is_a_bound_violation(tmp_path, capsys,
                                                          monkeypatch):
    # a schedule move the replay refuses fails the certificate (exit 1,
    # bound-violation), not the input (exit 2, error)
    monkeypatch.setattr(certify, "transform_tree", misfit_reversal)
    f = write(tmp_path, "t.graph", TRIANGLE)
    code, out, err = run(capsys, "verify", f, "--kind", "mest", "--json")
    assert code == 1
    assert err == ""
    rep = json.loads(out)
    assert rep["beta_certified"] is False
    assert rep["ok"] is False
    code, out, _ = run(capsys, "batch", "--dir", str(tmp_path), "--kind", "mest",
                       "--json")
    assert code == 1
    assert json.loads(out)["status"] == "bound-violation"


def test_batch_seeds_need_kind(capsys):
    code, _, err = run(capsys, "batch", "--seeds", "1:3")
    assert code == 2


@pytest.mark.parametrize("seeds", ["5", "a:b"])
def test_batch_malformed_seeds_name_the_flag(capsys, seeds):
    code, out, err = run(capsys, "batch", "--seeds", seeds, "--kind", "meo")
    assert code == 2
    assert out == ""
    assert err == (f"error: --seeds expects A:B with integer seeds A <= B, "
                   f"got '{seeds}'\n")


@pytest.mark.parametrize("command", ["greedy", "verify", "batch"])
def test_malformed_tie_break_names_the_flag(tmp_path, capsys, command):
    f = write(tmp_path, "a.mesc", MESC)
    where = ["--dir", str(tmp_path)] if command == "batch" else [f]
    code, out, err = run(capsys, command, *where, "--tie-break", "random:abc")
    assert code == 2
    assert out == ""
    assert err == ("error: --tie-break expects lowest, highest or random:SEED "
                   "with an integer SEED, got 'random:abc'\n")


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


@pytest.mark.parametrize("bad, big", [("a.mesc", "b.mesc"),
                                      ("b.mesc", "a.mesc")])
def test_batch_code_is_the_most_severe_in_any_order(tmp_path, capsys, bad, big):
    # an input error (2) outranks a guard skip (3) whichever file sorts first
    write(tmp_path, bad, "not an instance\n")
    write(tmp_path, big, BIG_MESC)
    code, out, _ = run(capsys, "batch", "--dir", str(tmp_path), "--json")
    assert code == 2
    rows = {json.loads(l)["id"]: json.loads(l) for l in out.strip().splitlines()}
    assert rows[bad]["status"] == "error"
    assert rows[big]["status"] == "skipped"


def test_closed_stdout_exits_141_quietly():
    # a reader that stops after one line (`| head -1`) is not a bound
    # violation: exit as SIGPIPE would, with nothing on stderr
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "entcover.cli", "batch", "--seeds", "1:400",
         "--kind", "meo", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())["id"] == "meo-0001"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_batch_empty_dir(tmp_path, capsys):
    code, out, _ = run(capsys, "batch", "--dir", str(tmp_path))
    assert code == 0
    assert out == ""


def test_batch_missing_dir_is_an_input_error(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    code, out, err = run(capsys, "batch", "--dir", missing, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {missing}: ")


def test_unknown_kind_for_mesc_file(tmp_path, capsys):
    f = write(tmp_path, "a.mesc", MESC)
    code, _, err = run(capsys, "greedy", f, "--kind", "mest")
    assert code == 2
