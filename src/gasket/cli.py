"""Command line interface for exact Apollonian packing computations.

Every subcommand reads exact rationals ("3", "-1/2") and writes JSON (or
CSV for the census).  Exit codes: 0 success, 1 domain or file error,
2 usage, 141 the reader closed standard output (as for a process killed
by SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Optional, Sequence

from . import verify as verify_mod
from .classify import (orbit_census, reduce_to_ground, reduced_form,
                       root_quadruple, super_integrality_class)
from .complete import complete, strong_integrality_from_three
from .core import (Circle, GasketError, W_STANDARD, descartes_defect,
                   divisor, orientation, validate_quadruple)
from .packing import (EnumerationBudget, Window, generate_packing,
                      generate_superpacking, locate_in_unit_square)
from .serialize import (circle_from_json, matrix_from_json, matrix_to_json,
                        packed_to_json, scalar_from_str, scalar_to_str)
from .svg import RenderOptions, render_svg

EXIT_BROKEN_PIPE = 141


def _parse_window(text: str) -> Window:
    parts = text.split(",")
    if len(parts) != 4:
        raise GasketError("window must be xmin,xmax,ymin,ymax")
    return Window(*[scalar_from_str(p) for p in parts])


def _budget_from_args(args) -> EnumerationBudget:
    window = _parse_window(args.window) if args.window else None
    return EnumerationBudget(max_curvature=scalar_from_str(args.max_curvature),
                             max_word_length=args.max_word_length,
                             window=window)


def _base_from_args(args):
    if getattr(args, "base", None):
        return matrix_from_json(json.loads(args.base))
    return W_STANDARD


def _add_quadruple(p: argparse.ArgumentParser):
    p.add_argument("curvatures", nargs=4,
                   help="four curvatures as exact rationals")


def _quadruple(args):
    return tuple(scalar_from_str(s) for s in args.curvatures)


def cmd_check(args) -> int:
    q = _quadruple(args)
    defect = descartes_defect(q)
    out = {"curvatures": [scalar_to_str(x) for x in q],
           "defect": scalar_to_str(defect), "valid": False}
    try:
        validate_quadruple(q)
        out["valid"] = True
        out["divisor"] = divisor(q)
        out["orientation"] = orientation(q)
        out["root_quadruple"] = [scalar_to_str(x) for x in root_quadruple(
            q if orientation(q) > 0 else tuple(-x for x in q))]
    except GasketError:
        pass
    print(json.dumps(out, indent=2))
    return 0


# One trace step as json.dumps(..., indent=2) lays it out in "steps".  Its
# values are scalar_to_str text and letter names, which need no escaping.
_REDUCE_STEP = ('    {{\n      "letter": "{}",\n      "quadruple": [\n'
                '        "{}",\n        "{}",\n        "{}",\n        "{}"\n'
                '      ],\n      "size": "{}"\n    }}')


def cmd_reduce(args) -> int:
    word, ground, trace = reduce_to_ground(_quadruple(args), return_trace=True)
    head = json.dumps({"word": word.text,
                       "ground": [scalar_to_str(x) for x in ground],
                       "steps": []}, indent=2)
    if not trace:
        print(head)
        return 0
    # The same text as json.dumps of the whole document, written a step at
    # a time: with indent, json.dumps runs its pure-Python encoder, and
    # small writes let a closed pipe raise BrokenPipeError.
    write = sys.stdout.write
    write(head[:-len("]\n}")])
    sep = "\n"
    for l, q, s in trace:
        write(sep + _REDUCE_STEP.format(l.text, *map(scalar_to_str, q),
                                        scalar_to_str(s)))
        sep = ",\n"
    write("\n  ]\n}\n")
    return 0


def cmd_root(args) -> int:
    root = root_quadruple(_quadruple(args))
    print(json.dumps({"root_quadruple": [scalar_to_str(x) for x in root]}))
    return 0


def cmd_classify(args) -> int:
    data = json.loads(sys.stdin.read() if args.matrix is None else args.matrix)
    m = matrix_from_json(data)
    word, label = reduced_form(m)
    cls = super_integrality_class(m)
    out = {
        "word": word.text,
        "label": {"family": label.family, "m": label.m, "n": label.n,
                  "g": label.g, "row_permutation": list(label.row_permutation),
                  "orientation": label.orientation},
        "integrality": {"status": cls.status, "g": cls.g,
                        "gvector": list(cls.gvector) if cls.gvector else None},
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_census(args) -> int:
    rows = orbit_census()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["g1", "g2", "g3", "g4", "count", "representatives"])
    for row in rows:
        writer.writerow(list(row.gvector) + [row.count,
                                             " ".join(row.representatives)])
    writer.writerow(["", "", "", "", sum(r.count for r in rows), "total"])
    sys.stdout.write(buf.getvalue())
    return 0


def cmd_complete(args) -> int:
    data = json.loads(sys.stdin.read() if args.circles is None else args.circles)
    if not isinstance(data, list) or len(data) != 3:
        raise GasketError("expected a JSON array of three circle objects")
    circles = [circle_from_json(d) for d in data]
    w1, w2 = complete(*circles)
    out = {"strongly_integral_input": strong_integrality_from_three(circles),
           "completions": [matrix_to_json(w1), matrix_to_json(w2)]}
    print(json.dumps(out, indent=2))
    return 0


def cmd_generate(args) -> int:
    base = _base_from_args(args)
    budget = _budget_from_args(args)
    gen = generate_superpacking if args.mode == "super" else generate_packing
    # One small write per line, so a closed pipe raises BrokenPipeError.
    sys.stdout.writelines(map(packed_to_json, gen(base, budget)))
    return 0


def cmd_render(args) -> int:
    base = _base_from_args(args)
    if not args.window:
        raise GasketError("render requires --window")
    budget = _budget_from_args(args)
    gen = generate_superpacking if args.mode == "super" else generate_packing
    circles = gen(base, budget)
    residue = None
    if args.mod is not None:
        residue = (args.mod, args.residue or 0)
    options = RenderOptions(
        window=budget.window,
        fill="depth" if args.depth_shade else "none",
        residue_filter=residue,
        labels=args.labels,
        highlight_base=tuple(base) if args.highlight_base else ())
    doc = render_svg(circles, options)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        # Line by line: one large write to a pipe whose reader has gone
        # can come back short without raising BrokenPipeError.
        sys.stdout.writelines(doc.splitlines(keepends=True))
    return 0


def cmd_locate(args) -> int:
    w = locate_in_unit_square(_quadruple(args))
    center = Circle(*min(w, key=lambda r: r[1])).center()
    out = {"matrix": matrix_to_json(w),
           "largest_circle_center": [scalar_to_str(x) for x in center]}
    print(json.dumps(out, indent=2))
    return 0


def cmd_verify(args) -> int:
    report = verify_mod.run_suite(args.suite, seed=args.seed)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasket",
        description="Exact Apollonian circle packings and super-packings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a curvature quadruple")
    _add_quadruple(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reduce", help="reduce a quadruple to ground position")
    _add_quadruple(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("root", help="root quadruple of a packing")
    _add_quadruple(p)
    p.set_defaults(func=cmd_root)

    p = sub.add_parser("classify",
                       help="canonical form and integrality of a 4x3 matrix")
    p.add_argument("--matrix", help="JSON rows; stdin when omitted")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("census", help="CSV census of super-integral orbits")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("complete",
                       help="complete three tangent circles (JSON on stdin)")
    p.add_argument("--circles", help="JSON array; stdin when omitted")
    p.set_defaults(func=cmd_complete)

    def add_generation_args(p, need_window=False):
        p.add_argument("--mode", choices=("packing", "super"), default="super")
        p.add_argument("--base", help="JSON 4x4 augmented matrix; "
                                      "standard strip by default")
        p.add_argument("--max-curvature", required=True)
        p.add_argument("--max-word-length", type=int, default=None)
        p.add_argument("--window", required=need_window,
                       help="xmin,xmax,ymin,ymax")

    p = sub.add_parser("generate", help="enumerate circles as JSON lines")
    add_generation_args(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("render", help="render a window to SVG")
    add_generation_args(p, need_window=True)
    p.add_argument("--mod", type=int, default=None,
                   help="keep curvatures in a residue class")
    p.add_argument("--residue", type=int, default=None)
    p.add_argument("--labels", action="store_true")
    p.add_argument("--depth-shade", action="store_true")
    p.add_argument("--highlight-base", action="store_true")
    p.add_argument("--out", help="output file; stdout when omitted")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("locate",
                       help="place a root quadruple in the unit square")
    _add_quadruple(p)
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(verify_mod.SUITES))
    p.add_argument("--seed", type=int, default=12345)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: building costs about as much as a small
    # request, and parse_args leaves the parser as it was.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (GasketError, OSError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError; OSError, a file that
        # cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
