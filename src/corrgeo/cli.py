"""Command-line interface.

Subcommands: validate, corr, dist, mean, diff, geodesic. Exit codes:
0 success, 2 validation failure (invalid matrices, rank or domain errors),
3 a failed solve (SolverReport.failed at the config's stagnation_tol),
4 unreadable or unparseable input.
"""

import argparse
import functools
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import pipeline
from .config import DEFAULT_CONFIG, SolverConfig
from .corr import CorrelationMatrix, validate
from .errors import AlignmentStagnation, CorrGeoError, InvalidInput, ParseError
from .quotient_space import GeodesicSegment, geodesic_rank_profile, orbit_log

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STAGNATION = 3
EXIT_IO = 4


def _solver_config(**flags) -> SolverConfig:
    """The default config with the SolverConfig fields whose flags were given."""
    overrides = {name: v for name, v in flags.items() if v is not None}
    return DEFAULT_CONFIG.with_(**overrides) if overrides else DEFAULT_CONFIG


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(args) -> int:
    M, _ = pipeline.read_matrix_csv(args.file)
    result = validate(M)
    if isinstance(result, CorrelationMatrix):
        print(f"{args.file}: valid correlation matrix, detected rank {result.detected_rank()}")
        return EXIT_OK
    for v in result:
        print(f"{args.file}: {type(v).__name__} magnitude {v.magnitude:.6g}")
    return EXIT_VALIDATION


def cmd_corr(args) -> int:
    manifest = pipeline.load_manifest(args.manifest)
    out = _out_dir(args)
    for spec in manifest.subjects:
        ts = pipeline.ingest(manifest.resolve(spec))
        corr, kept, dropped = pipeline.correlation_of(ts, manifest.drop)
        dest = out / f"{spec.subject_id}_corr.csv"
        pipeline.write_matrix_csv(dest, corr.entries, kept)
        note = f" ({len(dropped)} zero-variance columns dropped)" if dropped else ""
        print(f"{spec.subject_id}: {len(kept)} columns -> {dest}{note}")
    return EXIT_OK


def cmd_dist(args) -> int:
    t0 = time.perf_counter()
    manifest = pipeline.load_manifest(args.manifest)
    cfg = _solver_config(restarts=args.restarts, grad_tol=args.tol, seed=args.seed)
    run = pipeline.pairwise_distances(manifest, cfg, k=args.k)
    out = _out_dir(args)
    dest = out / "distances.csv"
    pipeline.write_matrix_csv(dest, run.distances, run.subject_ids)
    report = {
        "command": "dist",
        "k": run.k,
        "common_columns": list(run.common_columns),
        "dropped_subjects": [list(d) for d in run.dropped_subjects],
        "config": asdict(cfg),
        "pairs": [asdict(r) for r in run.pair_reports],
        "wall_seconds": time.perf_counter() - t0,
    }
    pipeline.write_run_report(out / "distances_report.json", report)
    print(f"{len(run.subject_ids)} subjects, k={run.k} -> {dest}")
    if run.any_stagnation:
        print("warning: at least one pair's rotation search failed (see its record)")
        return EXIT_STAGNATION
    return EXIT_OK


def cmd_mean(args) -> int:
    t0 = time.perf_counter()
    manifest = pipeline.load_manifest(args.manifest)
    cfg = _solver_config(restarts=args.restarts, grad_tol=args.tol, seed=args.seed)
    means, dropped = pipeline.group_means(manifest, cfg, group=args.group, k=args.k)
    out = _out_dir(args)
    for gm in means:
        label = gm.group or "all"
        dest = out / f"mean_{label}.csv"
        pipeline.write_matrix_csv(dest, gm.corr.entries, gm.columns)
        report = {
            "command": "mean",
            "group": label,
            "subjects": list(gm.subject_ids),
            "dropped_subjects": [list(d) for d in dropped],
            **gm.report.summary(),
            "grad_tol": cfg.grad_tol,
            "alignments": [
                {"subject_id": sid, **r.summary()}
                for sid, r in zip(gm.subject_ids, gm.report.alignments)
            ],
            "config": asdict(cfg),
            "wall_seconds": time.perf_counter() - t0,
        }
        pipeline.write_run_report(out / f"mean_{label}_report.json", report)
        print(
            f"group {label}: {len(gm.subject_ids)} subjects, "
            f"{gm.report.outer_iterations} trust-region iterations -> {dest}"
        )
    failed = any(gm.report.failed(cfg.stagnation_tol) for gm in means)
    return EXIT_STAGNATION if failed else EXIT_OK


def cmd_diff(args) -> int:
    if args.top < 0:
        raise InvalidInput(f"top must be an integer >= 0, got {args.top}")
    A, cols_a = pipeline.read_matrix_csv(args.mean_a)
    B, cols_b = pipeline.read_matrix_csv(args.mean_b)
    if cols_a != cols_b:
        raise InvalidInput("mean matrices have different column sets")
    report = pipeline.difference_report(A, B, args.threshold, columns=cols_a)
    out = _out_dir(args)
    pipeline.write_matrix_csv(out / "diff.csv", report.difference, cols_a)
    pipeline.write_matrix_csv(out / "diff_thresholded.csv", report.thresholded, cols_a)
    print(
        f"{len(report.entries)} entries above threshold {args.threshold:g} "
        f"-> {out / 'diff_thresholded.csv'}"
    )
    for a, b, v in report.entries[: args.top]:
        print(f"  {a} ~ {b}: {v:+.6f}")
    return EXIT_OK


def cmd_geodesic(args) -> int:
    X = pipeline.read_factor_csv(args.x)
    Y = pipeline.read_factor_csv(args.y)
    cfg = _solver_config(seed=args.seed)
    V = orbit_log(X, Y, cfg)
    seg = GeodesicSegment(start=V.base, velocity=V, duration=1.0)
    profile = geodesic_rank_profile(seg, samples=args.samples)
    dest = Path(args.out) if args.out else None
    lines = ["t,rank"] + [
        f"{pipeline.FLOAT_FMT.format(t)},{r}" for t, r in profile
    ]
    text = "\n".join(lines) + "\n"
    if dest:
        dest.write_text(text)
        print(f"rank profile with {args.samples} interior samples -> {dest}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once; main runs a subcommand's cmd_<name>, looked up per call."""
    p = argparse.ArgumentParser(
        prog="corrgeo",
        description="Quotient geometry of bounded-rank correlation matrices.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--k", type=int, default=None, help="factor width (default: column count)")
    solver.add_argument("--restarts", type=int, default=None, help="rotation-search starts")
    solver.add_argument("--tol", type=float, default=None, help="gradient tolerance")
    solver.add_argument("--seed", type=int, default=None, help="restart seed")
    solver.add_argument("--out", help="output directory (default .)")

    q = sub.add_parser("validate", help="check a correlation matrix CSV")
    q.add_argument("file")

    q = sub.add_parser("corr", help="per-subject correlation matrices from a manifest")
    q.add_argument("manifest")
    q.add_argument("--out", help="output directory (default .)")

    q = sub.add_parser("dist", parents=[solver], help="pairwise quotient distances for a cohort")
    q.add_argument("manifest")

    q = sub.add_parser(
        "mean", parents=[solver], help="per-group Frechet mean correlation matrices"
    )
    q.add_argument("manifest")
    q.add_argument("--group", default=None, help="restrict to one group")

    q = sub.add_parser("diff", help="thresholded difference of two mean matrices")
    q.add_argument("mean_a")
    q.add_argument("mean_b")
    q.add_argument("--threshold", type=float, required=True)
    q.add_argument("--top", type=int, default=10, help="entries to print")
    q.add_argument("--out", help="output directory (default .)")

    q = sub.add_parser("geodesic", help="rank profile along the geodesic between two factors")
    q.add_argument("x", help="CSV of the starting unit-row factor")
    q.add_argument("y", help="CSV of the ending unit-row factor")
    q.add_argument("--samples", type=int, default=17, help="interior sample count")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--out", help="output CSV (default stdout)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except AlignmentStagnation as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGNATION
    except CorrGeoError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
