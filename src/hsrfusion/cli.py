"""Command-line surface.

Subcommands map one-to-one onto the library operations: generate a scene,
observe it, solve the coupled factorization, certify a scene, align an
estimate against the truth, run the ambiguity counterexample, evaluate
the dominance probability, and run a full SNR sweep. Exit codes: 0 on
success, 1 on a validation failure, a path that cannot be written or
data too large for memory (each one "error:" line), 2 on a usage error.
"""

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds, counterexample, experiment, fileio, model, scenegen, solver
from .model import spatial_decimate, spectral_decimate

# The model files each subcommand reads, one required --flag each, in the
# order _load reads and checks them; a "true-" flag has its plain role.
_INPUTS = {"observe": ("spectral", "spatial", "image"),
           "solve": ("spectral", "spatial", "ms", "hs"),
           "certify": ("spectral", "spatial", "endmembers", "abundances"),
           "align": ("spectral", "spatial", "true-endmembers", "endmembers",
                     "true-abundances", "abundances")}


def _load(args):
    """The subcommand's _INPUTS files, read in order (G is checked as it is
    read). Each must pass model.validate_<role>, where there is one, and then
    all must agree on every axis they share (model.check_axes, flags naming
    the files); else a ValueError names the file."""
    loaded = []
    for flag in _INPUTS[args.command]:
        role, path = flag.removeprefix("true-"), getattr(args, flag.replace("-", "_"))
        read = fileio.read_spatial_response if role == "spatial" else fileio.read_matrix
        value = read(path)
        check = getattr(model, f"validate_{role}", None)
        problems = check(value) if check else ()
        if problems:
            raise ValueError(f"{problems[0]} ({path})")
        loaded.append((flag, role, value, path))
    model.raise_first(model.check_axes(*loaded))
    return [value for _, _, value, _ in loaded]


def _print_json(payload, out=None):
    if out:
        fileio.make_directory(Path(out).parent)
    print(fileio.write_json(out, payload) if out else fileio.json_text(payload))


def _cmd_generate(args):
    config = fileio.config_from_dict(scenegen.SceneConfig, fileio.read_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    generated = scenegen.generate_scene(config, config.spatial_response())
    out = fileio.save_generated_scene(args.out, generated)
    print(f"scene written to {out} (draws: {generated.draws})")
    return 0


def _cmd_observe(args):
    spectral, spatial, image = _load(args)
    y_ms = spectral_decimate(spectral, image)
    y_hs = spatial_decimate(image, spatial)
    if args.snr_db is not None:
        y_ms = scenegen.add_noise(y_ms, args.snr_db, args.seed)
        y_hs = scenegen.add_noise(y_hs, args.snr_db, args.seed + 1)
    out = fileio.make_directory(args.out)
    fileio.write_matrix(out / "ms.csv", y_ms)
    fileio.write_matrix(out / "hs.csv", y_hs)
    print(f"observations written to {out}")
    return 0


def _cmd_solve(args):
    spectral, spatial, y_ms, y_hs = _load(args)
    if args.config:
        config = fileio.config_from_dict(solver.SolverConfig, fileio.read_json(args.config))
    else:
        config = solver.SolverConfig(materials=args.materials)
    solution = solver.solve_coupled(y_ms, y_hs, spectral, spatial, config)
    out = fileio.save_solution(args.out, solution)
    print(
        f"solution written to {out} "
        f"(objective {solution.objective_trace[-1]:.6g}, "
        f"{solution.iterations} iterations, {solution.termination}, "
        f"stationarity {solution.stationarity:.3g})"
    )
    return 0


def _cmd_certify(args):
    spectral, spatial, endmembers, abundances = _load(args)
    certificate = bounds.certify(endmembers, abundances, spectral, spatial)
    _print_json(certificate.to_dict(), args.out)
    return 0


def _cmd_align(args):
    spectral, spatial, a_true, a_est, s_true, s_est = _load(args)
    kruskal = bounds.kruskal_rank(spectral_decimate(spectral, a_true))
    report = bounds.extract_alignment(
        a_true, a_est,
        spatial_decimate(s_true, spatial),
        spatial_decimate(s_est, spatial),
        kruskal=kruskal,
    )
    _print_json(report.to_dict(), args.out)
    return 0


def _cmd_counterexample(args):
    instance = counterexample.build_counterexample(args.rho)
    alpha1 = args.alpha1 if args.alpha1 is not None else args.rho
    report = counterexample.verify_counterexample(instance, alpha1, args.grid)
    # The surface first, so that a path it cannot take leaves nothing printed.
    if args.surface:
        path = Path(args.surface)
        fileio.make_directory(path.parent)
        fileio.write_table(path, ("alpha1", "error", "objective"), zip(
            report.grid_alphas, report.grid_errors, report.grid_objectives))
    _print_json(report.to_dict(), args.out)
    return 0 if report.passed else 1


def _cmd_dominance(args):
    analytic = bounds.dominance_probability(args.materials, args.bands)
    payload = {
        "materials": args.materials,
        "bands": args.bands,
        "analytic_raw": analytic.raw,
        "analytic": analytic.clamped,
    }
    if args.trials:
        mc = bounds.dominance_monte_carlo(args.materials, args.bands, args.trials, args.seed)
        payload.update({
            "trials": mc.trials,
            "successes": mc.successes,
            "empirical": mc.rate,
            "binomial_sigma": math.sqrt(max(mc.rate * (1 - mc.rate), 1e-12) / mc.trials),
        })
    _print_json(payload, args.out)
    return 0


def _cmd_experiment(args):
    config = fileio.config_from_dict(experiment.ExperimentConfig,
                                     fileio.read_json(args.config))
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    records = experiment.run_experiment(config)
    means = experiment.mean_mse_by_snr(records)
    for snr in config.snr_db:
        label = experiment.format_snr(snr)
        mean = means.get(snr)
        print(f"snr {label} dB: mean mse {mean:.6g}" if mean is not None
              else f"snr {label} dB: all trials failed")
    failed = [r for r in records if r.error is not None]
    if failed:
        print(f"{len(failed)} failed trials (see summary.json)", file=sys.stderr)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process. Parsing leaves it
    unchanged, so every call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="hsrfusion",
        description="Hyperspectral super-resolution: coupled factorization and recovery certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic scene")
    p.add_argument("--config", required=True, help="scene config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("observe", help="apply the observation operators to an image")
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="solve the coupled factorization")
    p.add_argument("--config", default=None, help="solver config JSON")
    p.add_argument("--materials", type=int, default=None,
                   help="number of endmembers (when no config file)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("certify", help="compute the recovery certificate of a scene")
    p.add_argument("--out", default=None)

    p = sub.add_parser("align", help="align an estimate against the ground truth")
    p.add_argument("--out", default=None)

    p = sub.add_parser("counterexample", help="verify the exact-recovery counterexample")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--alpha1", type=float, default=None)
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--out", default=None)
    p.add_argument("--surface", default=None, help="CSV path for the error surface")

    p = sub.add_parser("dominance", help="dominance probability: analytic bound and Monte Carlo")
    p.add_argument("--materials", "--n", dest="materials", type=int, required=True)
    p.add_argument("--bands", "--m", dest="bands", type=int, required=True)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("experiment", help="run an SNR sweep")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")

    for name, flags in _INPUTS.items():
        for flag in flags:
            sub.choices[name].add_argument(f"--{flag}", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and not args.config and args.materials is None:
        parser.error("solve needs --config or --materials")
    # Looked up by name on each call, so a handler rebound after the parser
    # was built is the one that runs.
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one has no text.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
