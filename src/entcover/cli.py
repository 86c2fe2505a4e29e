"""Command-line front end.

Subcommands
    greedy  FILE        run the greedy solver, print trace + entropy
    verify  FILE        greedy vs exact: alpha, bounds, certificates
    reduce  FILE        build the spanning-tree gadget for a set-cover file
    gen                 write a seeded random instance
    batch               verify a directory or seed range, one report per line

Exit codes: 0 all checks pass, 1 a bound, certificate or cover-validity
check failed (or, in batch mode, an instance hit an internal error),
2 input/parse error, 3 instance exceeds an exact-solver size guard.

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

from .core import (LOG2E, VALIDATE_MAX_M, PolymatroidOracle, entropy,
                   validate_cover)
from .certify import verify_beta_one
from .exact import GuardError, exact_cover, exact_mest
from .flow import approximation_bound, min_alpha
from .greedy import coefficients, run_greedy
from .instances import (GraphInstance, SetCoverInstance, generate_random,
                        hardness_gadget, mesc_oracle, meo_oracle, mest_oracle,
                        parse_instance, realise_cover,
                        reduction_entropy_relation, serialize_instance)

TOL = 1e-9


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_instance(data)


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
    # realise_cover); validate_cover is the fallback where it disagrees
    realised = realise_cover(inst, kind, trace)
    if realised == trace.cover.x and sum(realised) == oracle.total():
        report["cover_valid"], report["cover_check"] = True, "witness"
    elif oracle.m <= VALIDATE_MAX_M:
        ok, witness = validate_cover(oracle, trace.cover)
        report["cover_valid"], report["cover_check"] = ok, "exhaustive"
        if not ok:
            report["violated_subset_mask"] = witness
    else:
        report["cover_valid"], report["cover_check"] = None, "skipped"
    report["elapsed_seconds"] = time.perf_counter() - t0
    return report


def _verify_report(inst, kind: str, tie_break: str) -> dict:
    oracle = _oracle_for(inst, kind)
    t0 = time.perf_counter()
    trace = run_greedy(oracle, tie_break=tie_break)
    ent_g = entropy(trace.cover)
    if kind == "mest":
        opt = exact_mest(inst, oracle=oracle)
    else:
        opt = exact_cover(oracle)
    coeffs = coefficients(oracle, trace)
    alpha = min_alpha(trace, opt.covers, coeffs)
    n = oracle.total()
    alpha_bound = approximation_bound(ent_g, opt.entropy, alpha, n, tol=TOL)
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
        cert = verify_beta_one(inst, trace, opt, coeffs)
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


def _emit(report: dict, as_json: bool, out=None) -> None:
    out = out or sys.stdout
    if as_json:
        print(json.dumps(report, sort_keys=True), file=out)
        return
    for key, val in report.items():
        print(f"{key}: {val}", file=out)


def cmd_greedy(args) -> int:
    inst = _load(args.file)
    kind = _resolve_kind(inst, args.kind)
    report = _greedy_report(inst, kind, args.tie_break)
    _emit(report, args.json)
    return 1 if report["cover_valid"] is False else 0


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
    with open(out_path, "wb") as fh:
        fh.write(serialize_instance(gadget))
    m, n = len(inst.sets), inst.n_elements
    w = 2 * (m + n) - 1
    a = 2 * m + n - 1
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
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob.decode("ascii"))
    return 0


def _batch_jobs(args):
    if args.dir is not None:
        names = sorted(os.listdir(args.dir))
        for name in names:
            path = os.path.join(args.dir, name)
            if os.path.isfile(path):
                yield name, lambda p=path: _load(p)
    else:
        lo, _, hi = args.seeds.partition(":")
        first, last = int(lo), int(hi)
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
    worst = 0
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
        if code == 1:
            worst = 1
        elif code != 0 and worst == 0:
            worst = code
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entcover",
        description="Greedy, exact, and certified solvers for minimum-entropy "
                    "covers of polymatroids (set cover, orientation, spanning tree).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kinds=True):
        p.add_argument("--tie-break", default="lowest",
                       help="lowest | highest | random:SEED (default lowest)")
        if kinds:
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
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
