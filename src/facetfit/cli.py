"""Command-line interface: file formats and the four subcommands.

    facetfit fan-info FAN.json
    facetfit reconstruct --fan FAN.json [--fan FAN2.json ...] --data D.txt
    facetfit uniqueness --fan FAN.json --data D.txt
    facetfit simulate --fan FAN.json [options]

Exit codes are stable: 0 success, 2 parse error or refused input (any
``ValueError``, e.g. fans with different ray lists; a direction outside the
fan; an unwritable output path), 3 fan validation failure, 4 solver
iteration limit, 5 infeasible sampling plan, 6 failed linear program.  Every
refusal is one stderr line (``REFUSALS``), never a traceback.  All numeric
output is written with 17 significant digits so runs can be diffed exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from . import design as design_mod
from . import estimator as estimator_mod
from . import fan as fan_mod
from . import geometry, qp, sim

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_ITERATION = 4
EXIT_PLAN = 5
EXIT_LP = 6

FAN_FORMAT = "fan/1"
DATA_FORMAT = "measurements/1"
RECORDS_FORMAT = "records/1"


class ParseError(Exception):
    """Malformed input file; message carries position info when known."""


# Every refusal a command raises: its exit code and its stderr line.  Reads
# become ``ParseError``, so an ``OSError`` that reaches ``main`` is a write.
REFUSALS = (
    (ParseError, EXIT_PARSE, "parse error: {}"),
    (fan_mod.NoCarrier, EXIT_PARSE, "direction outside fan support: {}"),
    (ValueError, EXIT_PARSE, "invalid input: {}"),
    (OSError, EXIT_PARSE, "cannot write: {}"),
    (fan_mod.InvalidFan, EXIT_VALIDATION, "invalid fan: {}"),
    (qp.IterationLimit, EXIT_ITERATION, "solver iteration limit: {}"),
    (sim.QuotaInfeasible, EXIT_PLAN, "infeasible sampling plan: {}"),
    ((qp.Infeasible, qp.Unbounded, qp.Inaccurate), EXIT_LP,
     "linear program failed: {!r}"),
)


def fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_fan(path: str) -> fan_mod.SimplicialFan:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if raw.get("format", FAN_FORMAT) != FAN_FORMAT:
        raise ParseError(f"{path}: unsupported format {raw.get('format')!r}")
    for key in ("dim", "rays", "cells"):
        if key not in raw:
            raise ParseError(f"{path}: missing field {key!r}")
    try:
        return fan_mod.SimplicialFan(raw["rays"], raw["cells"], dim=raw["dim"])
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _valid_fan(path: str) -> fan_mod.SimplicialFan:
    """``load_fan``, refusing an invalid fan with its path and failed checks."""
    fan = load_fan(path)
    try:
        fan.require_valid()
    except fan_mod.InvalidFan as exc:
        raise fan_mod.InvalidFan(f"{path}: {exc}") from None
    return fan


def _require_directories(*paths: str | None) -> None:
    """Refuse, before any work, an output path whose directory is missing."""
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"{path}: no such directory")


def save_fan(fan: fan_mod.SimplicialFan, path: str) -> None:
    payload = {
        "format": FAN_FORMAT,
        "dim": fan.dim,
        "rays": [[float(x) for x in row] for row in fan.rays],
        "cells": [list(cell) for cell in fan.cells],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_dataset(path: str, dim: int) -> design_mod.Dataset:
    """Delimited text: d direction components then the value, '#' comments."""
    dirs, vals = [], []
    try:
        fh = open(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.replace(",", " ").split()
            if len(parts) != dim + 1:
                raise ParseError(
                    f"{path}: line {lineno}: expected {dim + 1} fields, "
                    f"got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}: non-numeric field") from None
            dirs.append(row[:dim])
            vals.append(row[dim])
    if not dirs:
        raise ParseError(f"{path}: no data rows")
    try:
        return design_mod.Dataset(np.array(dirs), np.array(vals))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_dataset(dataset: design_mod.Dataset, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# format: {DATA_FORMAT}\n")
        for u, y in zip(dataset.directions, dataset.values):
            fh.write(" ".join(fmt(x) for x in u) + " " + fmt(y) + "\n")


def save_records(records, path: str) -> None:
    """Records table; timings live in the metadata sidecar so identical
    seeds produce identical record files."""
    with open(path, "w") as fh:
        fh.write(f"# format: {RECORDS_FORMAT}\n")
        fh.write("m\treplicate\thausdorff_error\tobjective\n")
        for rec in records:
            fh.write(f"{rec.m}\t{rec.replicate}\t{fmt(rec.hausdorff_error)}"
                     f"\t{fmt(rec.objective)}\n")


def _essential_rows(matrix: np.ndarray) -> list[bool]:
    """Sequentially drop inequality rows implied by the rows still present.

    Row r is implied when ``min <r, h>`` over the remaining system (boxed to
    keep the program bounded) stays nonnegative; removing such a row leaves
    the cone unchanged, so the surviving rows are an irredundant system.
    """
    p, n = matrix.shape
    present = [True] * p
    for k in range(p):
        others = [j for j in range(p) if j != k and present[j]]
        if not others:
            continue
        sol = qp.solve_lp(matrix[k], matrix[others], bounds=[(-1.0, 1.0)] * n)
        if sol.objective >= -1e-9:
            present[k] = False
    return present


def wall_inequality_text(row: np.ndarray) -> str:
    terms = []
    for i, c in enumerate(row):
        if abs(c) <= 1e-12:
            continue
        mag = abs(c)
        coef = "" if abs(mag - 1.0) <= 1e-12 else format(mag, ".12g") + "*"
        if not terms:
            sign = "-" if c < 0 else ""
        else:
            sign = "- " if c < 0 else "+ "
        terms.append(f"{sign}{coef}h{i + 1}")
    return " ".join(terms) + " >= 0"


# ---------------------------------------------------------------------------
# SVG plot (static, no plotting dependency)
# ---------------------------------------------------------------------------

def write_loglog_svg(path: str, records, bound_prefactor: float | None) -> bool:
    """Log-log scatter of Hausdorff error against m with median and bound
    (if positive); returns False, writing nothing, if no error is positive."""
    pts = [(r.m, r.hausdorff_error) for r in records
           if not r.failed and r.hausdorff_error > 0]
    if not pts:
        return False
    ms = sorted({m for m, _ in pts})
    med = {m: float(np.median([e for mm, e in pts if mm == m])) for m in ms}
    xs = [np.log10(m) for m, _ in pts]
    ys = [np.log10(e) for _, e in pts]
    ylo, yhi = min(ys), max(ys)
    if bound_prefactor:
        yhi = max(yhi, np.log10(bound_prefactor / np.sqrt(ms[0])))
    xlo, xhi = min(xs), max(xs)
    width, height, margin = 480, 360, 50

    def sx(x):
        span = (xhi - xlo) or 1.0
        return margin + (x - xlo) / span * (width - 2 * margin)

    def sy(y):
        span = (yhi - ylo) or 1.0
        return height - margin - (y - ylo) / span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">log10 m</text>',
        f'<text x="14" y="{height / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">log10 Hausdorff error</text>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                     f'fill="steelblue" fill-opacity="0.55"/>')
    med_path = " ".join(
        f'{"M" if i == 0 else "L"} {sx(np.log10(m)):.2f} '
        f'{sy(np.log10(med[m])):.2f}' for i, m in enumerate(ms))
    parts.append(f'<path d="{med_path}" stroke="darkorange" fill="none" '
                 f'stroke-width="2"/>')
    if bound_prefactor:
        bnd = " ".join(
            f'{"M" if i == 0 else "L"} {sx(np.log10(m)):.2f} '
            f'{sy(np.log10(bound_prefactor / np.sqrt(m))):.2f}'
            for i, m in enumerate(ms))
        parts.append(f'<path d="{bnd}" stroke="crimson" fill="none" '
                     f'stroke-dasharray="6 3" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return True


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fan_info(args) -> int:
    fan = load_fan(args.fan)
    report = fan_mod.validate(fan, strict=args.strict)
    print(f"fan: {args.fan}  (d={fan.dim}, rays={fan.n_rays}, cells={fan.n_cells})")
    print(f"  cells independent:    {report.cells_independent}")
    print(f"  positively spanning:  {report.positively_spanning}")
    print(f"  rays distinct:        {report.rays_distinct}")
    print(f"  ray/cell incidence:   {report.ray_incidence}")
    print(f"  completeness probe:   {report.completeness_probe}")
    if report.complex_check is not None:
        print(f"  pairwise face check:  {report.complex_check}")
    for msg in report.messages:
        print(f"  ! {msg}")
    if not report.ok:
        print("validation: FAIL")
        return EXIT_VALIDATION
    print("validation: PASS")
    walls = fan.wall_system
    essential = _essential_rows(walls.matrix)
    print(f"wall-crossing inequalities ({walls.n_walls}, "
          f"{sum(essential)} essential):")
    for k in range(walls.n_walls):
        a, b = walls.pairs[k]
        tag = "" if essential[k] else "   (implied)"
        print(f"  {wall_inequality_text(walls.matrix[k])}   "
              f"(cells {a} | {b}){tag}")
    adjacency = np.zeros(fan.n_cells, int)
    for a, b in walls.pairs:
        adjacency[a] += 1
        adjacency[b] += 1
    print("cell adjacency counts:", " ".join(str(c) for c in adjacency))
    print(f"coefficient bound c_delta = {fmt(fan_mod.c_delta(fan))}")
    return EXIT_OK


def _result_payload(res: estimator_mod.ReconstructionResult) -> dict:
    sset = {
        "dimension": res.solution_set.dimension,
        "bounded": res.solution_set.bounded,
    }
    if res.solution_set.segment_endpoints is not None:
        sset["segment_endpoints"] = [
            [float(x) for x in e] for e in res.solution_set.segment_endpoints]
    return {
        "h_hat": [float(x) for x in res.h_hat],
        "y_hat": [float(x) for x in res.y_hat],
        "objective": res.objective,
        "uniqueness": {
            "numeric_rank": res.uniqueness.numeric_rank,
            "matching_size": res.uniqueness.matching_size,
            "cells_covered": res.uniqueness.cells_covered,
            "unique_for_all_y": res.uniqueness.unique_for_all_y,
            "kernel_basis": [[float(x) for x in row]
                             for row in res.uniqueness.kernel_basis],
        },
        "solution_set": sset,
    }


def cmd_reconstruct(args) -> int:
    _require_directories(args.output)
    fans = [_valid_fan(p) for p in args.fan]
    dataset = load_dataset(args.data, fans[0].dim)
    if len(fans) == 1:
        res = estimator_mod.reconstruct(fans[0], dataset)
        payload = {"format": "reconstruction/1",
                   "fan": args.fan[0], **_result_payload(res)}
        print(f"objective = {fmt(res.objective)}")
        print("h_hat =", " ".join(fmt(x) for x in res.h_hat))
        print(f"solution set: dimension {res.solution_set.dimension}, "
              f"{'bounded' if res.solution_set.bounded else 'unbounded'}")
        if res.solution_set.segment_endpoints is not None:
            for e in res.solution_set.segment_endpoints:
                print("  endpoint:", " ".join(fmt(x) for x in e))
        print(f"unique for all y: "
              f"{'yes' if res.uniqueness.unique_for_all_y else 'no'}")
    else:
        multi = estimator_mod.reconstruct_multi(fans, dataset)
        payload = {
            "format": "reconstruction-multi/1",
            "fans": list(args.fan),
            "best_objective": multi.best_objective,
            "minimizing_fans": list(multi.minimizing_fans),
            "tie": multi.is_tie,
            "results": [None if r is None else _result_payload(r)
                        for r in multi.results],
            "errors": [None if e is None else str(e) for e in multi.errors],
        }
        print(f"best objective = {fmt(multi.best_objective)}")
        if multi.is_tie:
            print(f"TIE between fans: "
                  f"{', '.join(args.fan[i] for i in multi.minimizing_fans)}")
        for i in multi.minimizing_fans:
            res = multi.results[i]
            print(f"  {args.fan[i]}: h_hat =",
                  " ".join(fmt(x) for x in res.h_hat))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_uniqueness(args) -> int:
    fan = _valid_fan(args.fan)
    dataset = load_dataset(args.data, fan.dim)
    dm = design_mod.build_design(fan, dataset.directions)
    report = design_mod.uniqueness_report(fan, dm)
    covered = sum(report.cells_covered)
    print(f"samples: {dataset.m}, rays: {fan.n_rays}")
    print(f"numeric rank: {report.numeric_rank}")
    print(f"matching size: {report.matching_size}")
    print(f"cells covered: {covered}/{fan.n_cells}")
    print(f"unique for all y: {'yes' if report.unique_for_all_y else 'no'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if not 0.0 < args.eta < 1.0:
        raise ParseError("--eta must lie in (0, 1)")
    if args.reps < 1:
        raise ParseError("--reps must be at least 1")
    if len(set(args.m)) != len(args.m):
        raise ParseError("--m values must be distinct")
    _require_directories(args.out, args.plot)
    fan = _valid_fan(args.fan)
    try:
        h0 = (np.ones(fan.n_rays) if args.h0 is None
              else np.array([float(x) for x in args.h0.split(",")]))
    except ValueError:
        raise ParseError("--h0 needs comma-separated numbers") from None
    if h0.shape != (fan.n_rays,):
        raise ParseError(f"--h0 needs {fan.n_rays} comma-separated values")
    if not geometry.is_deformation(fan, h0):
        raise ParseError("--h0 is not in the deformation cone")
    delta = args.delta if args.delta is not None else 1.0 / fan.n_rays
    plans = {m: sim.make_plan(fan, args.t, delta, m, args.seed) for m in args.m}
    noise = sim.NoiseModel(sigma=args.sigma, seed=sim.derive_seed(args.seed, 1))
    records = sim.run_convergence(fan, h0, lambda m: plans[m], sorted(args.m),
                                  args.reps, noise)

    bound_prefactor = None
    try:
        bound_prefactor = sim.bound_parameters(
            fan, plans[min(args.m)], noise.gamma, args.eta).prefactor
    except sim.NonpositiveLambda:
        print("note: bound unavailable (nonpositive variance factor)")

    save_records(records, args.out)
    meta = {
        "format": "records-meta/1",
        "library": f"facetfit {__version__}",
        "generator": sim.GENERATOR_ID,
        "seed": args.seed,
        "plan": {"t": args.t, "delta": delta,
                 "quotas": {str(m): list(plans[m].quotas) for m in args.m}},
        "noise": {"sigma": args.sigma, "gamma": noise.gamma},
        "eta": args.eta,
        "bound_prefactor": bound_prefactor,
        "elapsed_total": float(sum(r.elapsed for r in records)),
    }
    with open(args.out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out} ({len(records)} records)")

    ok = [r for r in records if not r.failed]
    if len({r.m for r in ok}) >= 2:
        slope = sim.fit_loglog_slope(records)
        print(f"fitted log-log slope: {fmt(slope)}")
    if bound_prefactor == 0.0:
        print("bound does not apply: its prefactor is 0 (the bound needs sigma > 0)")
    elif bound_prefactor is not None:
        viol = sum(1 for r in ok
                   if r.hausdorff_error >= bound_prefactor / np.sqrt(r.m))
        print(f"bound violations at eta={args.eta}: {viol}/{len(ok)}")
    if args.plot:
        if write_loglog_svg(args.plot, records, bound_prefactor):
            print(f"wrote {args.plot}")
        else:
            print(f"{args.plot}: nothing to plot, not written", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facetfit",
        description="Polytope reconstruction from support-function data")
    parser.add_argument("--version", action="version",
                        version=f"facetfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fan-info", help="validate a fan and print its constants")
    p.add_argument("fan")
    p.add_argument("--strict", action="store_true",
                   help="also run the quadratic pairwise face check")
    p.set_defaults(func=cmd_fan_info)

    p = sub.add_parser("reconstruct", help="least-squares reconstruction")
    p.add_argument("--fan", action="append", required=True,
                   help="fan file; repeat for the multi-fan estimator")
    p.add_argument("--data", required=True, help="measurement file")
    p.add_argument("--output", help="write the full result as JSON")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("uniqueness", help="rank/matching/coverage diagnostics")
    p.add_argument("--fan", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser("simulate", help="convergence experiment")
    p.add_argument("--fan", required=True)
    p.add_argument("--m", type=int, nargs="+", default=[100, 1000, 10000])
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=None,
                   help="per-ray concentration fraction (default 1/n)")
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h0", default=None,
                   help="true support vector, comma separated (default all ones)")
    p.add_argument("--out", default="records.tsv")
    p.add_argument("--plot", default=None, help="write a log-log SVG plot")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, line in REFUSALS:
            if isinstance(exc, types):
                print(" ".join(line.format(exc).splitlines()), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
