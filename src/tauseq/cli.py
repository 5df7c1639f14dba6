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
import functools
import json
import sys
from typing import FrozenSet, List, Optional, Sequence, Tuple

from tauseq.errors import TauSeqError
from tauseq.fields import FieldSpec
from tauseq.quiver import Quiver, build_algebra
from tauseq.tables import StrObj
from tauseq.universe import ModuleUniverse

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
    if not isinstance(doc, dict):
        raise InputError("%s: expected a JSON object" % path)
    for field_name in ("field", "vertices", "arrows"):
        if field_name not in doc:
            raise InputError("%s: missing required field %r" % (path, field_name))
    for field_name in ("vertices", "arrows", "relations"):
        if not isinstance(doc.get(field_name, []), list):
            raise InputError("%s: %r must be a list" % (path, field_name))
    if not doc["vertices"]:
        raise InputError("%s: the quiver has no vertices" % path)
    try:
        raw = doc["field"]["characteristic"]
        characteristic = int(raw)
        if isinstance(raw, float) and raw != characteristic:
            raise ValueError(raw)
    except (KeyError, TypeError, ValueError, OverflowError):
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
    relations = doc.get("relations", [])
    if not all(isinstance(rel, list) for rel in relations):
        raise InputError("%s: each relation must be a list of arrow names" % path)
    relations = [[str(x) for x in rel] for rel in relations]
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


def _module_id(u: ModuleUniverse, token: str) -> int:
    try:
        return u.id_of_label(token)
    except KeyError as exc:
        raise InputError(exc.args[0])


def parse_sequence(u: ModuleUniverse, text: str) -> Tuple[int, ...]:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if not body.strip():
        return ()
    return tuple(_module_id(u, token) for token in body.split(","))


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
        (shifts if shifted else mods).append(_module_id(u, token))
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
            {"label": u.labels[i], "dim_vector": list(dims),
             "tau_rigid": u.tau_rigid[i], "projective": u.is_proj[i],
             "injective": u.is_inj[i]}
            for i, dims in enumerate(u.dims)
        ],
        "certificate": {k: (list(v) if isinstance(v, (list, tuple))
                            else v if isinstance(v, str) else bool(v))
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
            algebra.dim, algebra.n, len(u.dims),
            "certified" if u.certified else "NOT certified (advisory: raise --dim-bound)"),
    ]
    for i, dims in enumerate(u.dims):
        flags = []
        if u.is_proj[i]:
            flags.append("projective")
        if u.is_inj[i]:
            flags.append("injective")
        if u.tau_rigid[i]:
            flags.append("rigid")
        lines.append("  %-10s dim %-12s %s"
                     % (u.labels[i], "(" + ",".join(map(str, dims)) + ")",
                        " ".join(flags)))
    emit(doc, args.json, lines)
    return 0


def _certified_universe(args) -> ModuleUniverse:
    algebra = load_algebra_file(args.file)
    return build_universe(algebra, args.dim_bound, require_certificate=True)


def _selected_wide(u: ModuleUniverse, text: Optional[str]) -> FrozenSet[int]:
    """Members of J of the --j object, or of the zero subcategory without
    one; an object that is not basic support tau-rigid is refused."""
    from tauseq.wide import ambient_context, context_of
    if not text:
        return frozenset()
    return context_of(u, ambient_context(u), parse_str_obj(u, text)).members


def cmd_tes_enumerate(args) -> int:
    from tauseq.sequences import enumerate_tau_es
    u = _certified_universe(args)
    w = _selected_wide(u, args.j)
    seqs = enumerate_tau_es(u, w)
    doc = {"schema": SCHEMA, "wide_subcategory": sorted(u.labels[i] for i in w),
           "sequences": [seq_label(u, s) for s in seqs], "count": len(seqs)}
    emit(doc, args.json, ["%d sequences" % len(seqs)] +
         ["  " + seq_label(u, s) for s in seqs])
    return 0


def cmd_tes_mutate(args) -> int:
    from tauseq.sequences import mutate, tail_context
    u = _certified_universe(args)
    seq = parse_sequence(u, args.seq)
    tail_context(u, seq)  # the whole input must be a sequence
    out = mutate(u, seq, args.op, args.index)
    doc = {"schema": SCHEMA, "input": seq_label(u, seq), "op": args.op,
           "index": args.index, "output": seq_label(u, out)}
    emit(doc, args.json, [seq_label(u, out)])
    return 0


def cmd_tes_path(args) -> int:
    from tauseq.sequences import apply_steps, mutation_distance, transitivity_path
    u = _certified_universe(args)
    src = parse_sequence(u, getattr(args, "from"))
    dst = parse_sequence(u, args.to)
    word = transitivity_path(u, src, dst)
    applied = apply_steps(u, src, word.steps) == dst  # the one application of the word
    dist = mutation_distance(u, src, dst)
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
    u = _certified_universe(args)
    graph = mutation_graph(u, _selected_wide(u, args.j))
    dot = graph_dot(u, graph)
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(dot)
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (args.dot, exc))
        print("wrote %s (%d vertices, %d edges, %s)"
              % (args.dot, len(graph.vertices), len(graph.edges),
                 "connected" if graph.is_connected() else "DISCONNECTED"))
    else:
        sys.stdout.write(dot)
    return 0


def _verify_summary(u: ModuleUniverse):
    """The counts block and the complete mutation graph of a verify report."""
    from tauseq.sequences import mutation_graph
    from tauseq.wide import all_torsion_classes, all_wide_subcategories
    graph = mutation_graph(u, frozenset())
    counts = {
        "indecomposables": len(u.dims),
        "tau_rigid_indecomposables": sum(u.tau_rigid),
        "torsion_classes": len(all_torsion_classes(u)),
        "wide_subcategories": len(all_wide_subcategories(u)),
        "complete_sequences": len(graph.vertices),
    }
    return counts, {"vertices": len(graph.vertices), "edges": len(graph.edges),
                    "connected": graph.is_connected()}


def cmd_verify(args) -> int:
    from tauseq.verify import Check, run_suites
    u = _certified_universe(args)
    reports = run_suites(u, [args.suite])
    summary = Check("counts and mutation graph")
    counts, graph = summary.attempt(lambda: _verify_summary(u), {}) or (None, None)
    ok = summary.ok and all(r.ok for r in reports)
    doc = {"schema": SCHEMA, "algebra": algebra_summary(u),
           "counts": counts, "mutation_graph": graph,
           "passed": ok, "suites": [r.as_dict() for r in reports]}
    lines = []
    for r in reports:
        lines.append("suite %s: %s" % (r.name, "pass" if r.ok else "FAIL"))
        lines.extend("  " + x for x in r.lines())
        for c in r.checks:
            for failure in c.failures[:3]:
                lines.append("    counterexample: %s"
                             % json.dumps(failure, sort_keys=True))
    if not summary.ok:
        doc["diagnostic"] = summary.failures[0]["diagnostic"]
        lines.append("%s: %s" % (summary.name, doc["diagnostic"]))
    emit(doc, args.json, lines)
    return 0 if ok else 1


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on the first call; parsing leaves
    it as it was, so every call of ``main`` shares it."""
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
    args = make_parser().parse_args(argv)
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
