"""Command-line front end.

Four subcommands: `eps` scans a cube exhaustively for the minimal gap,
`certify` runs the certificate pipeline, `distance` measures one simplex
pair, and `table1` recomputes the small-cube gap table.

Reports come in two formats.  `text` is for reading.  `structured` is a
line-delimited `key: value` format with a version header; parsing it and
re-serializing reproduces the bytes exactly, which is what the golden
tests pin.  Every number is exact: integers, or rationals as "p/q".

Exit status: 0 success/pass, 1 certificate failure, 2 usage or input
error, 3 budget exceeded (report flagged incomplete).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from .bruteforce import (DEFAULT_BUDGET, POINT_SEGMENT, POINT_TRIANGLE,
                         SEGMENT_SEGMENT, BudgetExceededError, eps_bruteforce,
                         reproduce_small_table)
from .certificate import fmt_exact
from .certify import (certify_coarse_bound_margin, certify_domination,
                      certify_optimal_search)
from .geometry import LatticeSimplex, sq_distance
from .model import (encode_pair, gram_det, in_envelope, in_monotone_region,
                    offset_det)

FORMAT_VERSION = "latticegap/1"

_CLASSES = (POINT_SEGMENT, SEGMENT_SEGMENT, POINT_TRIANGLE)


# --- structured report format ---------------------------------------------

def structured_serialize(pairs) -> str:
    """One "key: value" line per pair, newline-terminated."""
    lines = []
    for key, value in pairs:
        key, value = str(key), str(value)
        if ": " in key or "\n" in key or "\n" in value:
            raise ValueError(f"unserializable report entry {key!r}")
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def structured_parse(text: str):
    """Inverse of structured_serialize; validates the version header."""
    pairs = []
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"malformed report line {line!r}")
        pairs.append((key, value))
    if not pairs or pairs[0] != ("format", FORMAT_VERSION):
        raise ValueError("missing or unsupported format header")
    return tuple(pairs)


# --- small rendering helpers ------------------------------------------------

def surd_str(value):
    """Human form 1/sqrt(q) for a squared value 1/q; None otherwise."""
    if value > 0 and value.numerator == 1:
        return f"1/sqrt({value.denominator})"
    return None


def simplex_str(s: LatticeSimplex) -> str:
    return " ".join(",".join(str(c) for c in v) for v in s.vertices)


def pair_str(pair) -> str:
    return " | ".join(simplex_str(s) for s in pair)


def write_atomically(path: str, text: str) -> None:
    """Replace the file at `path` with `text` in one step: write a
    temporary file beside it, then rename it over the target.  A failed
    write leaves the target as it was and removes the temporary file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".latticegap-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() would have given
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    if args.out:
        write_atomically(args.out, text)
    else:
        sys.stdout.write(text)


def _certificate_pairs(prefix: str, cert) -> list:
    out = [(f"{prefix}.subject", cert.subject),
           (f"{prefix}.verdict", cert.verdict),
           (f"{prefix}.notes", cert.notes),
           (f"{prefix}.witnesses", len(cert.witnesses))]
    for i, w in enumerate(cert.witnesses):
        out.append((f"{prefix}.witness.{i}", fmt_exact(w)))
    for key, value in cert.data:
        out.append((f"{prefix}.data.{key}", fmt_exact(value)))
    return out


def _certificate_text(cert) -> list:
    lines = [cert.summary()]
    for key, value in cert.data:
        lines.append(f"  {key} = {fmt_exact(value)}")
    for w in cert.witnesses:
        lines.append(f"  witness: {fmt_exact(w)}")
    return lines


# --- subcommands -------------------------------------------------------------

def _emit_budget_incomplete(args, command: str, exc) -> int:
    if args.format == "structured":
        _emit(args, structured_serialize((
            ("format", FORMAT_VERSION), ("command", command),
            ("status", "incomplete"), ("reason", "budget exceeded"),
            ("required_pairs", exc.required), ("budget", exc.budget))))
    else:
        _emit(args, f"incomplete: scan needs {exc.required} pairs, "
                    f"budget is {exc.budget}\n")
    return 3


def cmd_eps(args) -> int:
    classes = tuple(args.classes) if args.classes else None
    try:
        res = eps_bruteforce(args.d, args.k, classes, budget=args.budget,
                             workers=args.workers, reduced=args.reduce)
    except BudgetExceededError as exc:
        return _emit_budget_incomplete(args, "eps", exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    surd = surd_str(res.eps_squared)
    if args.format == "structured":
        pairs = [("format", FORMAT_VERSION), ("command", "eps"),
                 ("status", "complete"), ("d", res.d), ("k", res.k),
                 ("classes", " ".join(res.classes)),
                 ("eps_squared", fmt_exact(res.eps_squared))]
        if surd:
            pairs.append(("eps", surd))
        pairs.append(("pairs_scanned", res.pairs_scanned))
        pairs.append(("witnesses", len(res.witnesses)))
        pairs.extend((f"witness.{i}", pair_str(w))
                     for i, w in enumerate(res.witnesses))
        _emit(args, structured_serialize(pairs))
    else:
        lines = [f"minimal squared distance, d={res.d} k={res.k}: "
                 f"{fmt_exact(res.eps_squared)}"]
        if surd:
            lines.append(f"distance: {surd}")
        lines.append(f"classes: {', '.join(res.classes)}")
        lines.append(f"pairs scanned: {res.pairs_scanned}")
        lines.append("witnesses (canonical):")
        lines.extend(f"  {pair_str(w)}" for w in res.witnesses)
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_certify(args) -> int:
    selected = []
    if args.all or args.prop1:
        selected.append(("prop1",
                         lambda: certify_domination(workers=args.workers)))
    if args.all or args.prop2:
        selected.append(("prop2",
                         lambda: certify_optimal_search(workers=args.workers)))
    if args.all or args.prop31:
        selected.append(("prop31", certify_coarse_bound_margin))
    if args.all or args.table1:
        selected.append(("table1",
                         lambda: reproduce_small_table(budget=args.budget,
                                                       workers=args.workers)))
    if not selected:
        print("error: select at least one of --prop1 --prop2 --prop31 "
              "--table1 --all", file=sys.stderr)
        return 2

    try:
        results = [(name, run()) for name, run in selected]
    except BudgetExceededError as exc:
        return _emit_budget_incomplete(args, "certify", exc)
    all_passed = all(cert.passed for _, cert in results)

    if args.format == "structured":
        pairs = [("format", FORMAT_VERSION), ("command", "certify"),
                 ("status", "pass" if all_passed else "fail"),
                 ("selected", " ".join(name for name, _ in results)),
                 ("certificates", len(results))]
        for i, (name, cert) in enumerate(results):
            pairs.append((f"certificate.{i}.selector", name))
            pairs.extend(_certificate_pairs(f"certificate.{i}", cert))
        _emit(args, structured_serialize(pairs))
    else:
        lines = []
        for name, cert in results:
            lines.append(f"[{name}]")
            lines.extend(_certificate_text(cert))
        lines.append(f"overall: {'pass' if all_passed else 'fail'}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all_passed else 1


def parse_pair_file(text: str):
    """Simplex pair file: header line "d k", then one vertex per line as
    space-separated integers, with a blank line between the two simplices."""
    lines = [ln.strip() for ln in text.splitlines()]
    while lines and not lines[0]:
        lines.pop(0)
    if not lines:
        raise ValueError("empty simplex file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError('header line must be "d k"')
    d, k = (int(x) for x in header)
    groups = [[]]
    for ln in lines[1:]:
        if not ln:
            if groups[-1]:
                groups.append([])
            continue
        groups[-1].append(tuple(int(x) for x in ln.split()))
    groups = [g for g in groups if g]
    if len(groups) != 2:
        raise ValueError("exactly two simplices are required")
    for g in groups:
        for v in g:
            if len(v) != d:
                raise ValueError(f"vertex {v} does not have {d} coordinates")
    return LatticeSimplex(tuple(groups[0]), k), LatticeSimplex(tuple(groups[1]), k)


def _parse_vertices(text: str, d: int):
    verts = []
    for chunk in text.split():
        v = tuple(int(x) for x in chunk.split(","))
        if len(v) != d:
            raise ValueError(f"vertex {chunk!r} does not have {d} coordinates")
        verts.append(v)
    return tuple(verts)


def cmd_distance(args) -> int:
    try:
        if args.file:
            with open(args.file) as fh:
                first, second = parse_pair_file(fh.read())
        else:
            if args.d is None or args.k is None or not args.first or not args.second:
                raise ValueError("provide --file, or all of --d --k --first --second")
            first = LatticeSimplex(_parse_vertices(args.first, args.d), args.k)
            second = LatticeSimplex(_parse_vertices(args.second, args.d), args.k)
        dist = sq_distance(first, second)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # encode with the point first when a triangle is present
    encoding = None
    if len(second.vertices) < len(first.vertices):
        first, second = second, first
    try:
        encoding = encode_pair(first, second)
    except ValueError:
        pass

    pairs = [("format", FORMAT_VERSION), ("command", "distance"),
             ("status", "complete"), ("d", first.dim), ("k", first.k),
             ("first", simplex_str(first)), ("second", simplex_str(second)),
             ("sq_distance", fmt_exact(dist))]
    surd = surd_str(dist)
    if surd:
        pairs.append(("distance", surd))
    pairs.append(("disjoint", fmt_exact(dist > 0)))
    if encoding is not None:
        pairs.append(("encoding", " ".join(str(c) for c in encoding.coords)))
        pairs.append(("offset_det", offset_det(encoding)))
        pairs.append(("gram_det", gram_det(encoding)))
        pairs.append(("in_envelope", fmt_exact(in_envelope(encoding))))
        pairs.append(("in_monotone_region",
                      fmt_exact(in_monotone_region(encoding))))

    if args.format == "structured":
        _emit(args, structured_serialize(pairs))
    else:
        lines = [f"squared distance: {fmt_exact(dist)}"]
        if surd:
            lines.append(f"distance: {surd}")
        if dist == 0:
            lines.append("the simplices are not disjoint")
        for key, value in pairs:
            if key in ("encoding", "offset_det", "gram_det", "in_envelope",
                       "in_monotone_region"):
                lines.append(f"{key}: {value}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_table1(args) -> int:
    try:
        cert = reproduce_small_table(budget=args.budget, workers=args.workers,
                                     reduced=args.reduce)
    except BudgetExceededError as exc:
        return _emit_budget_incomplete(args, "table1", exc)
    if args.format == "structured":
        pairs = [("format", FORMAT_VERSION), ("command", "table1"),
                 ("status", cert.verdict)]
        pairs.extend(_certificate_pairs("certificate.0", cert))
        _emit(args, structured_serialize(pairs))
    else:
        lines = []
        for d, k, expected, computed in cert.get("rows", ()):
            mark = "ok" if expected == computed else "MISMATCH"
            lines.append(f"d={d} k={k} expected {fmt_exact(expected)} "
                         f"computed {fmt_exact(computed)} {mark}")
        lines.append(cert.summary())
        _emit(args, "\n".join(lines) + "\n")
    return 0 if cert.passed else 1


# --- argument parsing ---------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


def _add_run_options(sp, budget=True):
    sp.add_argument("--format", choices=("text", "structured"), default="text")
    sp.add_argument("--out", metavar="PATH", help="write the report to a file")
    sp.add_argument("--workers", type=_positive_int,
                    default=os.cpu_count() or 1)
    if budget:
        sp.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                        help="maximum number of pairs to scan")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="latticegap",
        description="Exact minimal distances between disjoint lattice "
                    "polytopes in small cubes, with certificates.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eps", help="exhaustive minimal-gap scan")
    sp.add_argument("--d", type=int, choices=(2, 3), required=True)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--classes", nargs="+", choices=_CLASSES)
    sp.add_argument("--reduce", action="store_true",
                    help="same result, less work: in the square, scan only "
                         "canonical orbit representatives of the points; in "
                         "the cube, run the exact search over the pair "
                         "encoding instead of the scan")
    _add_run_options(sp)

    sp = sub.add_parser("certify", help="run the certificate pipeline")
    sp.add_argument("--prop1", action="store_true",
                    help="domination of the lower candidate layer")
    sp.add_argument("--prop2", action="store_true",
                    help="search for optimal corner patterns")
    sp.add_argument("--prop31", action="store_true",
                    help="margin against the coarse 1/(3k^4) bound")
    sp.add_argument("--table1", action="store_true",
                    help="recompute the small-cube gap table")
    sp.add_argument("--all", action="store_true")
    _add_run_options(sp)

    sp = sub.add_parser("distance", help="exact distance of one simplex pair")
    sp.add_argument("--file", metavar="PATH",
                    help='pair file: header "d k", vertices one per line, '
                         "blank line between simplices")
    sp.add_argument("--d", type=int, choices=(2, 3))
    sp.add_argument("--k", type=_positive_int)
    sp.add_argument("--first", metavar="VERTS",
                    help='vertices like "0,0,0 1,2,3"')
    sp.add_argument("--second", metavar="VERTS")
    sp.add_argument("--format", choices=("text", "structured"), default="text")
    sp.add_argument("--out", metavar="PATH")

    sp = sub.add_parser("table1", help="recompute the small-cube gap table")
    sp.add_argument("--reduce", action="store_true")
    _add_run_options(sp)

    return p


_COMMANDS = {
    "eps": cmd_eps,
    "certify": cmd_certify,
    "distance": cmd_distance,
    "table1": cmd_table1,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
