"""Command-line front end.

Subcommands
    greedy  FILE        run the greedy solver, print trace + entropy
    verify  FILE        greedy vs exact: alpha, bounds, certificates
    reduce  FILE        build the spanning-tree gadget for a set-cover file
    gen                 write a seeded random instance
    batch               verify a directory or seed range, one report per line

Exit codes: 0 all checks pass, 1 a bound or certificate check failed,
or an internal error (a broken invariant, with a traceback; in batch
mode, an instance that hit one), 2 input/parse error, 3 instance
exceeds an exact-solver size guard, 141 stdout was closed early.  A
batch exits with its most severe code: 1 outranks 2, and 2 outranks 3.

Reports carry units in their field names (_bits, _seconds).  --json
emits one JSON object per line; the schema is documented in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .core import LOG2E, PolymatroidOracle, entropy
from .certify import verify_beta_one
from .exact import GuardError, exact_cover
from .flow import TOL, approximation_bound, min_alpha
from .greedy import _tie_key, coefficients, run_greedy
from .instances import (GraphInstance, SetCoverInstance, generate_random,
                        hardness_gadget, mesc_oracle, meo_oracle, mest_oracle,
                        parse_instance, realise_cover,
                        reduction_entropy_relation, serialize_instance)


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_instance(data)


def _write(path: str, blob: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _resolve_kind(inst, kind: Optional[str]) -> str:
    if isinstance(inst, SetCoverInstance):
        if kind not in (None, "mesc"):
            raise ValueError(f"set-cover file cannot be treated as {kind}")
        return "mesc"
    if kind is None:
        return "meo"  # graphs default to orientation; mest must be explicit
    if kind == "mesc":
        raise ValueError("graph file cannot be treated as mesc")
    return kind


def _oracle_for(inst, kind: str) -> PolymatroidOracle:
    if kind == "mesc":
        return mesc_oracle(inst)
    if kind == "meo":
        return meo_oracle(inst)
    if kind == "mest":
        return mest_oracle(inst)
    raise ValueError(f"unknown kind '{kind}'")


def _instance_summary(inst, kind: str) -> dict:
    if isinstance(inst, SetCoverInstance):
        return {"kind": kind, "sets": len(inst.sets), "elements": inst.n_elements}
    return {"kind": kind, "vertices": inst.n_vertices, "edges": len(inst.edges)}


def _greedy_report(inst, kind: str, tie_break: str) -> dict:
    oracle = _oracle_for(inst, kind)
    t0 = time.perf_counter()
    trace = run_greedy(oracle, tie_break=tie_break)
    report = _instance_summary(inst, kind)
    report.update({
        "tie_break": tie_break,
        "order": list(trace.order),
        "deltas": list(trace.deltas),
        "cover": list(trace.cover.x),
        "greedy_entropy_bits": entropy(trace.cover),
    })
    # the realisation proves the cover valid in linear time (see
    # realise_cover); on a greedy trace it always matches the cover
    realised = realise_cover(inst, kind, trace)
    if realised != trace.cover.x:
        raise RuntimeError(f"invariant broken: greedy cover {trace.cover.x} "
                           f"differs from its realisation {realised}")
    report["cover_valid"] = True
    report["elapsed_seconds"] = time.perf_counter() - t0
    return report


def _verify_report(inst, kind: str, tie_break: str) -> dict:
    oracle = _oracle_for(inst, kind)
    t0 = time.perf_counter()
    trace = run_greedy(oracle, tie_break=tie_break)
    ent_g = entropy(trace.cover)
    opt = exact_cover(oracle)
    coeffs = coefficients(oracle, trace)
    alpha = min_alpha(trace, opt.covers, coeffs)
    n = oracle.total()
    alpha_bound = approximation_bound(ent_g, opt.entropy, alpha, n)
    plain = ent_g <= opt.entropy + LOG2E + TOL

    report = _instance_summary(inst, kind)
    report.update({
        "tie_break": tie_break,
        "greedy_entropy_bits": ent_g,
        "optimal_entropy_bits": opt.entropy,
        "optimal_cover_count": len(opt.covers),
        "alpha": {"num": alpha.numerator, "den": alpha.denominator},
        "alpha_bound_lhs_bits": alpha_bound.lhs,
        "alpha_bound_rhs_bits": alpha_bound.rhs,
        "alpha_bound_slack_bits": alpha_bound.slack,
        "alpha_bound_holds": alpha_bound.holds,
        "unit_alpha_bound_rhs_bits": opt.entropy + LOG2E,
        "unit_alpha_bound_holds": plain,
    })
    ok = alpha_bound.holds and plain
    if kind == "mest":
        cert = verify_beta_one(inst, oracle, trace, opt, coeffs)
        report["beta_witness"] = cert["beta_witness"]
        report["beta_certified"] = cert["certified"]
        report["beta_admissible"] = cert["admissible"]
        report["beta_moves"] = len(cert["moves"])
        report["beta_levels"] = cert["levels"]
        report["beta_bound_holds"] = plain  # the β = 1 bound is the α = 1 form
        ok = ok and cert["certified"]
    report["ok"] = ok
    report["elapsed_seconds"] = time.perf_counter() - t0
    return report


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    for key, val in report.items():
        print(f"{key}: {val}")


def cmd_greedy(args) -> int:
    inst = _load(args.file)
    kind = _resolve_kind(inst, args.kind)
    _emit(_greedy_report(inst, kind, args.tie_break), args.json)
    return 0


def cmd_verify(args) -> int:
    inst = _load(args.file)
    kind = _resolve_kind(inst, args.kind)
    report = _verify_report(inst, kind, args.tie_break)
    _emit(report, args.json)
    return 0 if report["ok"] else 1


def cmd_reduce(args) -> int:
    inst = _load(args.file)
    if not isinstance(inst, SetCoverInstance):
        raise ValueError("reduce expects a set-cover file")
    gadget, roles = hardness_gadget(inst)
    out_path = args.out or (args.file + ".gadget")
    _write(out_path, serialize_instance(gadget))
    m, n = len(inst.sets), inst.n_elements
    w = gadget.n_vertices - 1  # every spanning tree's edge count
    a = gadget.nbr_masks[roles.r_node].bit_count()  # the hub's degree
    # mu(lambda) = offset + slope * lambda, exactly reduction_entropy_relation
    offset = reduction_entropy_relation(m, n, 0.0)
    slope = n / w
    report = {
        "gadget_file": out_path,
        "vertices": gadget.n_vertices,
        "edges": len(gadget.edges),
        "total_charge": w,
        "fixed_charge": a,
        "threshold_offset_bits": offset,
        "threshold_slope": slope,
        "roles": {
            "hub": roles.r_node,
            "aux": list(roles.aux_nodes),
            "sets": list(roles.set_nodes),
            "elements": list(roles.elem_nodes),
        },
    }
    _emit(report, args.json)
    return 0


def cmd_gen(args) -> int:
    params = {}
    if args.sets is not None:
        params["m"] = args.sets
    if args.elements is not None:
        params["n"] = args.elements
    if args.density is not None:
        params["density"] = args.density
    if args.vertices is not None:
        params["n_vertices"] = args.vertices
    if args.edge_prob is not None:
        params["extra_edge_prob"] = args.edge_prob
    inst = generate_random(args.kind, args.seed, **params)
    blob = serialize_instance(inst)
    if args.out:
        _write(args.out, blob)
    else:
        sys.stdout.write(blob.decode("ascii"))
    return 0


def _batch_jobs(args):
    if args.dir is not None:
        try:
            names = sorted(os.listdir(args.dir))
        except OSError as exc:
            raise ValueError(f"cannot read {args.dir}: {exc}") from None
        for name in names:
            path = os.path.join(args.dir, name)
            if os.path.isfile(path):
                yield name, lambda p=path: _load(p)
    else:
        lo, _, hi = args.seeds.partition(":")
        try:
            first, last = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"--seeds expects A:B with integer seeds A <= B, "
                             f"got '{args.seeds}'") from None
        if last < first:
            raise ValueError(f"empty seed range {args.seeds}")
        for seed in range(first, last + 1):
            yield (f"{args.kind}-{seed:04d}",
                   lambda s=seed: generate_random(args.kind, s))


def _batch_one(item, kind_flag, tie_break):
    ident, loader = item
    try:
        inst = loader()
        kind = _resolve_kind(inst, kind_flag if isinstance(inst, GraphInstance) else None)
        report = _verify_report(inst, kind, tie_break)
    except GuardError as exc:
        return {"id": ident, "status": "skipped", "reason": str(exc)}, 3
    except ValueError as exc:
        return {"id": ident, "status": "error", "reason": str(exc)}, 2
    except Exception as exc:  # a library fault: report it, keep the batch going
        import traceback  # only on this path: it adds ~5 ms to every start-up
        traceback.print_exc()
        return {"id": ident, "status": "error-internal",
                "reason": f"{type(exc).__name__}: {exc}"}, 1
    report["id"] = ident
    report["status"] = "ok" if report["ok"] else "bound-violation"
    return report, 0 if report["ok"] else 1


def cmd_batch(args) -> int:
    if (args.dir is None) == (args.seeds is None):
        raise ValueError("batch needs exactly one of --dir or --seeds A:B")
    if args.seeds is not None and args.kind is None:
        raise ValueError("--seeds requires --kind")
    codes = set()
    for item in _batch_jobs(args):  # file-name order, or seed order
        report, code = _batch_one(item, args.kind, args.tie_break)
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            status = report.get("status", "?")
            ent = report.get("greedy_entropy_bits")
            line = f"{report['id']}: {status}"
            if ent is not None:
                line += f" greedy={ent:.6f} bits"
            print(line)
        codes.add(code)
    return min(codes - {0}, default=0)  # 1 outranks 2, and 2 outranks 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entcover",
        description="Greedy, exact, and certified solvers for minimum-entropy "
                    "covers of polymatroids (set cover, orientation, spanning tree).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tie-break", default="lowest",
                       help="lowest | highest | random:SEED (default lowest)")
        p.add_argument("--kind", choices=("mesc", "meo", "mest"),
                       help="graph files default to meo; mest must be explicit")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("greedy", help="run the greedy solver on an instance file")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(fn=cmd_greedy)

    p = sub.add_parser("verify", help="greedy vs exact optimum with bound checks")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="build the spanning-tree gadget for a set-cover file")
    p.add_argument("file")
    p.add_argument("--out", help="gadget output path (default FILE.gadget)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("gen", help="write a seeded random instance")
    p.add_argument("--kind", choices=("mesc", "meo", "mest"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sets", type=int, help="mesc: number of sets")
    p.add_argument("--elements", type=int, help="mesc: universe size")
    p.add_argument("--density", type=float, help="mesc: membership probability")
    p.add_argument("--vertices", type=int, help="meo/mest: vertex count")
    p.add_argument("--edge-prob", type=float, help="meo/mest: extra edge probability")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("batch", help="verify a directory of files or a seed range")
    p.add_argument("--dir", help="directory of instance files")
    p.add_argument("--seeds", help="inclusive seed range A:B")
    add_common(p)
    p.set_defaults(fn=cmd_batch)
    return parser


def _check_tie_break(policy: str) -> None:
    """Refuse a malformed --tie-break before any instance is read."""
    try:
        _tie_key(policy, 0)
    except ValueError:
        raise ValueError(f"--tie-break expects lowest, highest or random:SEED "
                         f"with an integer SEED, got '{policy}'") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "tie_break" in args:
            _check_tie_break(args.tie_break)
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): exit as SIGPIPE would, and
        # send what is still buffered to devnull so shutdown prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: exact solvers take at most 16 sets or vertices; shrink "
              "the instance or use 'greedy' which has no size guard",
              file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
