"""Command-line front end.

Complexes are given as GCX files or as names from the bundled gallery.
Exit codes: 0 for success or an affirmative verdict, 1 for a negative
verdict (NOT OPEN, BISIMILAR no), 2 for errors in the input or an
unknown verdict, 3 for an internal error (a fault of the program).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import fixtures
from .algtop import homology, pi0
from .bisim import bisimilar, check_open
from .errors import DitopError, ParseError
from .gcomplex import (
    GlobularComplex,
    format_gcx,
    import_precubical,
    parse_cmap,
    parse_gcx,
    parse_pcx,
    require_state,
    subdivide_2cell,
    subdivide_edge,
    validate,
)
from .natsys import (
    crush_induced_map,
    diagram_export,
    dt_comparison,
    format_chain,
    natural_system,
    nt_value_of_path,
)
from .pathspace import (
    discrete_trace,
    format_path_spec,
    naturalize,
    parse_path_spec,
    path_complex,
    trace_space,
)
from .reparam import MoorePathPL, PLMap, renormalize
from .values import parse_valuation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _load_complex(spec: str) -> GlobularComplex:
    path = Path(spec)
    if path.exists():
        x = parse_gcx(path.read_text(), path.stem)
    elif spec in fixtures.GALLERY:
        x = fixtures.load(spec)
    else:
        raise DitopError(f"no such file or gallery complex: {spec}")
    rep = validate(x)
    if not rep.ok:
        raise DitopError(f"invalid complex {x.name}:\n{rep}")
    return x


def _read_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    return Path(spec).read_text()


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _homology_lines(p, alpha, beta, maxdeg=None) -> list[str]:
    top = max(p.dimension, 1) if maxdeg is None else maxdeg
    return [
        f"H{k}({alpha},{beta}) = {homology(p, k)}" for k in range(top + 1)
    ]


def cmd_paths(args) -> int:
    x = _load_complex(args.complex)
    require_state(x, args.alpha)
    require_state(x, args.beta)
    p = path_complex(x, args.alpha, args.beta, args.cap)
    lines = [f"complex {x.name}", f"pair ({args.alpha},{args.beta})"]
    lines += [f"cube{k} {p.n_cubes(k)}" for k in range(p.dimension + 1)]
    lines += _homology_lines(p, args.alpha, args.beta)
    lines.append(f"pi0({args.alpha},{args.beta}) = {pi0(p).n_classes}")
    text = "\n".join(lines) + "\n"
    if args.cubes:
        text += p.export_text()
    _emit(text, args.out)
    return EXIT_OK


def cmd_trace_space(args) -> int:
    x = _load_complex(args.complex)
    ts = trace_space(x, args.cell_from, args.cell_to, args.cap)
    p = ts.base
    lines = [f"complex {x.name}", f"trace-space ({args.cell_from},{args.cell_to})"]
    lines += [f"cube{k} {p.n_cubes(k)}" for k in range(p.dimension + 1)]
    lines.append(f"extra-point {'yes' if ts.extra_point else 'no'}")
    lines.append(f"points {ts.n_points()}")
    lines += _homology_lines(p, args.cell_from, args.cell_to)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_natsys(args) -> int:
    x = _load_complex(args.complex)
    val = parse_valuation(args.val)
    d = natural_system(x, val, args.cap)
    header = f"natsys {x.name} valuation {val.label}\n"
    _emit(header + diagram_export(d), args.out)
    return EXIT_OK


def cmd_bisim(args) -> int:
    a = _load_complex(args.complex_a)
    b = _load_complex(args.complex_b)
    val = parse_valuation(args.val)
    fa = natural_system(a, val, args.cap)
    fb = natural_system(b, val, args.cap)
    res = bisimilar(fa, fb)
    _emit(res.report() + "\n", args.out)
    if res.verdict == "yes":
        return EXIT_OK
    if res.verdict == "no":
        return EXIT_NEGATIVE
    return EXIT_ERROR


def cmd_check_open(args) -> int:
    val = parse_valuation(args.val)
    if args.comparison:
        x = _load_complex(args.comparison)
        dm = dt_comparison(x, val, args.cap)
    else:
        if not (args.cmap and args.complex_a and args.complex_b):
            raise DitopError("check-open needs MAP A B, or --comparison X")
        a = _load_complex(args.complex_a)
        b = _load_complex(args.complex_b)
        cmap_path = Path(args.cmap)
        if cmap_path.exists():
            text = cmap_path.read_text()
        elif args.cmap == "crush.cmap":
            text = fixtures.source_path("crush.cmap").read_text()
        else:
            raise DitopError(f"no such map file: {args.cmap}")
        m = parse_cmap(text, a, b)
        dm = crush_induced_map(m, a, b, val, args.cap)
    chk = check_open(dm)
    _emit(chk.report() + "\n", args.out)
    return EXIT_OK if chk.ok else EXIT_NEGATIVE


def cmd_dt(args) -> int:
    x = _load_complex(args.complex)
    gamma = parse_path_spec(args.path, x)
    chain, cuts = discrete_trace(x, gamma)
    lines = [
        f"trace {format_chain(chain)}",
        "breakpoints " + " ".join(f"{t.numerator}/{t.denominator}" for t in cuts),
    ]
    if args.val:
        val = parse_valuation(args.val)
        rep = nt_value_of_path(x, gamma, val, args.cap)
        lines.append(f"value(direct) {rep.direct.describe()}")
        lines.append(f"value(trace) {rep.via_trace.describe()}")
        lines.append(f"consistent {'yes' if rep.consistent else 'no'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_naturalize(args) -> int:
    x = _load_complex(args.complex)
    gamma = parse_path_spec(args.path, x)
    natgl, clock = naturalize(x, gamma)
    lines = [
        format_path_spec(natgl),
        "clock "
        + " ".join(
            f"{t.numerator}/{t.denominator},{v.numerator}/{v.denominator}"
            for t, v in clock.breakpoints
        ),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _word_from_json(data):
    """The clocked word of a renormalize input; a malformed one is a ParseError."""
    try:
        word = []
        for piece in data["word"]:
            gamma = MoorePathPL(1, [PLMap.from_pairs(c) for c in piece["gamma"]])
            num, den = piece["length"]
            word.append((gamma, PLMap.from_pairs(piece["phi"]), Fraction(num, den)))
        return word, PLMap.from_pairs(data["clock"])
    except KeyError as err:
        raise ParseError(f"renormalize input lacks the key {err}") from None
    except ZeroDivisionError:
        raise ParseError("renormalize input has a zero denominator") from None
    except (TypeError, ValueError) as err:
        raise ParseError(f"malformed renormalize input: {err}") from None


def cmd_renormalize(args) -> int:
    word, clock_in = _word_from_json(json.loads(_read_text(args.input)))
    word2, clock = renormalize(word, clock_in)
    out = {
        "word": [
            {
                "gamma": [c.to_pairs() for c in gamma.components],
                "phi": phi.to_pairs(),
                "length": [ell.numerator, ell.denominator],
            }
            for gamma, phi, ell in word2
        ],
        "clock": clock.to_pairs(),
    }
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_subdivide(args) -> int:
    x = _load_complex(args.complex)
    if args.edge:
        y, _ = subdivide_edge(x, args.edge)
    elif args.cell:
        y, _ = subdivide_2cell(x, args.cell, args.chord)
    else:
        raise DitopError("subdivide needs --edge E or --cell C [--chord k]")
    _emit(format_gcx(y), args.out)
    return EXIT_OK


def cmd_import_pcx(args) -> int:
    text = _read_text(args.pcx)
    name = Path(args.pcx).stem if args.pcx != "-" else "K"
    x = import_precubical(parse_pcx(text, name))
    _emit(format_gcx(x), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ditop",
        description="Trace spaces, natural systems and bisimulation "
        "checking on finite directed complexes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, val_default=None, cap=True):
        if cap:
            p.add_argument("--cap", type=int, default=100_000, help="enumeration cap")
        p.add_argument("--out", help="write the report to a file")
        if val_default is not None:
            p.add_argument(
                "--val", default=val_default, help="valuation: pi0 or hom:<k>"
            )

    p = sub.add_parser("paths", help="route complex and homology between states")
    p.add_argument("complex")
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("--cubes", action="store_true", help="list every cube with faces")
    common(p)
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("trace-space", help="trace-space model between two cells")
    p.add_argument("complex")
    p.add_argument("cell_from")
    p.add_argument("cell_to")
    common(p)
    p.set_defaults(fn=cmd_trace_space)

    p = sub.add_parser("natsys", help="export the discrete natural system")
    p.add_argument("complex")
    common(p, val_default="pi0")
    p.set_defaults(fn=cmd_natsys)

    p = sub.add_parser("bisim", help="decide bisimilarity of two natural systems")
    p.add_argument("complex_a")
    p.add_argument("complex_b")
    common(p, val_default="pi0")
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("check-open", help="openness of an induced diagram map")
    p.add_argument("cmap", nargs="?", help="CMAP file")
    p.add_argument("complex_a", nargs="?")
    p.add_argument("complex_b", nargs="?")
    p.add_argument(
        "--comparison",
        metavar="COMPLEX",
        help="check the comparison map of this complex instead",
    )
    common(p, val_default="pi0")
    p.set_defaults(fn=cmd_check_open)

    p = sub.add_parser("dt", help="discrete trace of a directed PL path")
    p.add_argument("complex")
    p.add_argument("--path", required=True, help="path spec text")
    p.add_argument("--val", default=None, help="also compare values both ways")
    common(p)
    p.set_defaults(fn=cmd_dt)

    p = sub.add_parser("naturalize", help="unit-speed form of an execution path")
    p.add_argument("complex")
    p.add_argument("--path", required=True)
    common(p, cap=False)
    p.set_defaults(fn=cmd_naturalize)

    p = sub.add_parser("renormalize", help="normal form of a clocked word (JSON)")
    p.add_argument("input", help="JSON file or - for stdin")
    common(p, cap=False)
    p.set_defaults(fn=cmd_renormalize)

    p = sub.add_parser("subdivide", help="edge split or 2-cell chord split")
    p.add_argument("complex")
    p.add_argument("--edge")
    p.add_argument("--cell")
    p.add_argument("--chord", type=int, default=1)
    common(p, cap=False)
    p.set_defaults(fn=cmd_subdivide)

    p = sub.add_parser("import-pcx", help="precubical set to globular complex")
    p.add_argument("pcx", help="PCX file or - for stdin")
    common(p, cap=False)
    p.set_defaults(fn=cmd_import_pcx)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DitopError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as err:  # a fault of the program, not of its input
        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
