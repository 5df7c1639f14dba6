"""Command-line surface: algebra ingestion, enumeration, mutation, paths,
mutation graphs, and the verification suites.

Algebra files are JSON documents:

    {
      "field": {"characteristic": 0},
      "vertices": ["1", "2"],
      "arrows": [{"name": "a", "from": "1", "to": "2"}],
      "relations": []
    }

Modules are addressed by their canonical labels (dimension vector plus
ordinal, for example "11#1"), by a bare dimension vector when unambiguous,
or by the aliases S<v> and P<v> for the simple and projective at a vertex.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from tauseq.errors import TauSeqError
from tauseq.fields import FieldSpec
from tauseq.quiver import Quiver, build_algebra
from tauseq.universe import ModuleUniverse, StrObj

SCHEMA = 1


class InputError(Exception):
    pass


def load_algebra_file(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("%s: line %d: %s" % (path, exc.lineno, exc.msg))
    for field_name in ("field", "vertices", "arrows"):
        if field_name not in doc:
            raise InputError("%s: missing required field %r" % (path, field_name))
    try:
        characteristic = int(doc["field"]["characteristic"])
    except (KeyError, TypeError, ValueError):
        raise InputError("%s: field.characteristic must be an integer" % path)
    try:
        field = FieldSpec(characteristic)
    except ValueError as exc:
        raise InputError("%s: %s" % (path, exc))
    arrows = []
    for a in doc["arrows"]:
        try:
            arrows.append((str(a["name"]), str(a["from"]), str(a["to"])))
        except (KeyError, TypeError):
            raise InputError("%s: arrows need name/from/to fields" % path)
    relations = [[str(x) for x in rel] for rel in doc.get("relations", [])]
    try:
        quiver = Quiver([str(v) for v in doc["vertices"]], arrows)
        algebra = build_algebra(quiver, field, relations)
    except TauSeqError as exc:
        raise InputError("%s: %s: %s" % (path, type(exc).__name__, exc))
    return algebra


def build_universe(algebra, dim_bound: Optional[int],
                   require_certificate: bool) -> ModuleUniverse:
    bound = None if dim_bound is None else tuple([dim_bound] * algebra.n)
    return ModuleUniverse(algebra, dim_bound=bound,
                          require_certificate=require_certificate)


def parse_sequence(u: ModuleUniverse, text: str) -> Tuple[int, ...]:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if not body.strip():
        return ()
    out = []
    for token in body.split(","):
        try:
            out.append(u.id_of_label(token.strip()))
        except KeyError as exc:
            raise InputError(str(exc))
    return tuple(out)


def parse_str_obj(u: ModuleUniverse, text: str) -> StrObj:
    mods, shifts = [], []
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if body.strip() in ("", "0"):
        return StrObj.make()
    for token in body.split(","):
        token = token.strip()
        shifted = token.endswith("[1]")
        if shifted:
            token = token[:-3]
        try:
            mid = u.id_of_label(token)
        except KeyError as exc:
            raise InputError(str(exc))
        (shifts if shifted else mods).append(mid)
    return StrObj.make(mods, shifts)


def seq_label(u: ModuleUniverse, seq: Sequence[int]) -> str:
    return "(" + ",".join(u.labels[i] for i in seq) + ")"


def algebra_summary(u: ModuleUniverse) -> dict:
    alg = u.algebra
    return {
        "characteristic": alg.field.characteristic,
        "dimension": alg.dim,
        "rank": alg.n,
        "vertices": list(alg.quiver.vertex_labels),
        "indecomposables": [
            {"label": u.labels[i], "dim_vector": list(m.dims),
             "tau_rigid": u.tau_rigid[i], "projective": u.is_proj[i],
             "injective": u.is_inj[i]}
            for i, m in enumerate(u.modules)
        ],
        "certificate": {k: (list(v) if isinstance(v, (list, tuple)) else bool(v))
                        for k, v in u.certificate.items()},
        "certified": u.certified,
    }


def emit(doc: dict, as_json: bool, text_lines: List[str]):
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_inspect(args) -> int:
    algebra = load_algebra_file(args.file)
    u = build_universe(algebra, args.dim_bound, require_certificate=False)
    doc = {"schema": SCHEMA, "algebra": algebra_summary(u)}
    lines = [
        "dimension %d, rank %d, %d indecomposables, %s" % (
            algebra.dim, algebra.n, len(u.modules),
            "certified" if u.certified else "NOT certified (advisory: raise --dim-bound)"),
    ]
    for i, m in enumerate(u.modules):
        flags = []
        if u.is_proj[i]:
            flags.append("projective")
        if u.is_inj[i]:
            flags.append("injective")
        if u.tau_rigid[i]:
            flags.append("rigid")
        lines.append("  %-10s dim %-12s %s"
                     % (u.labels[i], "(" + ",".join(map(str, m.dims)) + ")",
                        " ".join(flags)))
    emit(doc, args.json, lines)
    return 0


def _certified_universe(args) -> ModuleUniverse:
    algebra = load_algebra_file(args.file)
    try:
        return build_universe(algebra, args.dim_bound, require_certificate=True)
    except TauSeqError as exc:
        raise InputError("%s: %s" % (type(exc).__name__, exc))


def cmd_tes_enumerate(args) -> int:
    from tauseq.sequences import enumerate_tau_es
    from tauseq.wide import ambient_context, j_in_context
    u = _certified_universe(args)
    if args.j:
        w = j_in_context(u, ambient_context(u), parse_str_obj(u, args.j))
    else:
        w = frozenset()
    seqs = enumerate_tau_es(u, w)
    doc = {"schema": SCHEMA, "wide_subcategory": sorted(u.labels[i] for i in w),
           "sequences": [seq_label(u, s) for s in seqs], "count": len(seqs)}
    emit(doc, args.json, ["%d sequences" % len(seqs)] +
         ["  " + seq_label(u, s) for s in seqs])
    return 0


def cmd_tes_mutate(args) -> int:
    from tauseq.sequences import mutate
    u = _certified_universe(args)
    seq = parse_sequence(u, args.seq)
    try:
        out = mutate(u, seq, args.op, args.index)
    except TauSeqError as exc:
        raise InputError("%s: %s" % (type(exc).__name__, exc))
    doc = {"schema": SCHEMA, "input": seq_label(u, seq), "op": args.op,
           "index": args.index, "output": seq_label(u, out)}
    emit(doc, args.json, [seq_label(u, out)])
    return 0


def cmd_tes_path(args) -> int:
    from tauseq.sequences import (apply_steps, enumerate_tau_es, j_of_sequence,
                                  mutation_graph, transitivity_path)
    u = _certified_universe(args)
    src = parse_sequence(u, getattr(args, "from"))
    dst = parse_sequence(u, args.to)
    try:
        word = transitivity_path(u, src, dst)
        applied = apply_steps(u, src, word.steps) == dst
        w = j_of_sequence(u, src).members
        graph = mutation_graph(u, w)
        index = {v: i for i, v in enumerate(graph.vertices)}
        dist = graph.bfs_distances(index[src]).get(index[dst])
    except TauSeqError as exc:
        raise InputError("%s: %s" % (type(exc).__name__, exc))
    doc = {"schema": SCHEMA, "from": seq_label(u, src), "to": seq_label(u, dst),
           "word": word.display(), "length": word.length,
           "bfs_distance": dist, "applied": "OK" if applied else "FAILED"}
    emit(doc, args.json, ["word: %s" % word.display(),
                          "length: %d (bfs distance %s)" % (word.length, dist),
                          "applied: %s" % ("OK" if applied else "FAILED")])
    return 0 if applied else 1


def graph_dot(u: ModuleUniverse, graph) -> str:
    lines = ["graph mutation {"]
    palette = ["black", "blue3", "red3", "green4", "orange3", "purple3"]
    for i, v in enumerate(graph.vertices):
        lines.append('  n%d [label="%s"];' % (i, seq_label(u, v)))
    seen = set()
    for a, b, op, idx in graph.edges:
        key = frozenset((a, b))
        if key in seen:
            continue
        seen.add(key)
        color = palette[idx % len(palette)]
        lines.append('  n%d -- n%d [label="phi_%d/psi_%d", color=%s];'
                     % (a, b, idx, idx, color))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_tes_graph(args) -> int:
    from tauseq.sequences import mutation_graph
    from tauseq.wide import ambient_context, j_in_context
    u = _certified_universe(args)
    if args.j:
        w = j_in_context(u, ambient_context(u), parse_str_obj(u, args.j))
    else:
        w = frozenset()
    graph = mutation_graph(u, w)
    dot = graph_dot(u, graph)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
        print("wrote %s (%d vertices, %d edges, %s)"
              % (args.dot, len(graph.vertices), len(graph.edges),
                 "connected" if graph.is_connected() else "DISCONNECTED"))
    else:
        sys.stdout.write(dot)
    return 0


def cmd_verify(args) -> int:
    from tauseq.sequences import enumerate_tau_es, mutation_graph
    from tauseq.verify import SUITES, run_suites
    from tauseq.wide import all_torsion_classes, all_wide_subcategories
    u = _certified_universe(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(u, names)
    ok = all(r.ok for r in reports)
    graph = mutation_graph(u, frozenset())
    counts = {
        "indecomposables": len(u.modules),
        "tau_rigid_indecomposables": sum(u.tau_rigid),
        "torsion_classes": len(all_torsion_classes(u)),
        "wide_subcategories": len(all_wide_subcategories(u)),
        "complete_sequences": len(enumerate_tau_es(u, frozenset())),
    }
    doc = {"schema": SCHEMA, "algebra": algebra_summary(u),
           "counts": counts,
           "mutation_graph": {"vertices": len(graph.vertices),
                              "edges": len(graph.edges),
                              "connected": graph.is_connected()},
           "passed": ok, "suites": [r.as_dict() for r in reports]}
    lines = []
    for r in reports:
        lines.append("suite %s: %s" % (r.name, "pass" if r.ok else "FAIL"))
        lines.extend("  " + x for x in r.lines())
        for c in r.checks:
            for failure in c.failures[:3]:
                lines.append("    counterexample: %s"
                             % json.dumps(failure, sort_keys=True))
    emit(doc, args.json, lines)
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauseq",
        description="exact computations with torsion classes and "
                    "tau-exceptional sequences over bound quiver algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="algebra and enumeration summary")
    p_inspect.add_argument("file")
    p_inspect.add_argument("--dim-bound", type=int, default=None)
    p_inspect.add_argument("--json", action="store_true")
    p_inspect.set_defaults(fn=cmd_inspect)

    p_tes = sub.add_parser("tes", help="sequence enumeration and mutation")
    p_tes.add_argument("file")
    tes_sub = p_tes.add_subparsers(dest="tes_command", required=True)

    p_enum = tes_sub.add_parser("enumerate")
    p_enum.add_argument("--j", default=None,
                        help="support object whose perpendicular category to use")
    p_enum.add_argument("--dim-bound", type=int, default=None)
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(fn=cmd_tes_enumerate)

    p_mut = tes_sub.add_parser("mutate")
    p_mut.add_argument("--seq", required=True)
    p_mut.add_argument("--op", choices=("phi", "psi"), required=True)
    p_mut.add_argument("--index", type=int, required=True)
    p_mut.add_argument("--dim-bound", type=int, default=None)
    p_mut.add_argument("--json", action="store_true")
    p_mut.set_defaults(fn=cmd_tes_mutate)

    p_path = tes_sub.add_parser("path")
    p_path.add_argument("--from", required=True)
    p_path.add_argument("--to", required=True)
    p_path.add_argument("--dim-bound", type=int, default=None)
    p_path.add_argument("--json", action="store_true")
    p_path.set_defaults(fn=cmd_tes_path)

    p_graph = tes_sub.add_parser("graph")
    p_graph.add_argument("--j", default=None)
    p_graph.add_argument("--dot", default=None, help="write DOT to this path")
    p_graph.add_argument("--dim-bound", type=int, default=None)
    p_graph.set_defaults(fn=cmd_tes_graph)

    p_verify = sub.add_parser("verify", help="run the named verification suites")
    p_verify.add_argument("file")
    p_verify.add_argument("--suite", default="all",
                          choices=("enumeration", "bijections", "emap",
                                   "mutation", "transitivity", "all"))
    p_verify.add_argument("--dim-bound", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except TauSeqError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
