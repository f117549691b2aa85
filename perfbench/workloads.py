"""The benchmark's workloads: inputs made from a seed, one op, its check.

Each workload is a closed loop driven by one client: the next op starts
when the previous one ends. An op's inputs derive from (seed, op index)
only. Every run first solves a reference batch, the first ops of
DEFAULT_SEED, whose outputs are identical on every run and commit of the
same program; it warms the process up and yields the quality metrics.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hsrfusion import cli, experiment, model, scenegen, solver

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Criterion 8's bound on the reconstruction error of a noiseless trial.
NOISELESS_MSE = 1e-8
# The solver's own acceptance slack: a step may raise the objective by
# this relative amount (see solver._descend).
MONOTONE_SLACK = 1e-12
RELATIVE_TOLERANCE = 1e-9


def child_seed(*key):
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Solver workloads: one experiment.run_trial per op
# ---------------------------------------------------------------------------

@dataclass
class TrialOutput:
    record: experiment.TrialRecord
    noiseless: bool
    solutions: list


def solution_problems(solution, noiseless, mse):
    """Everything wrong with one solve; empty means it passes."""
    problems = [str(v) for v in model.validate_endmembers(solution.endmembers)]
    problems += [str(v) for v in model.validate_abundances(solution.abundances)]
    trace = np.asarray(solution.objective_trace, dtype=float)
    if not np.isfinite(trace).all():
        problems.append("objective trace is not finite")
    elif np.any(np.diff(trace) > MONOTONE_SLACK * np.maximum(trace[:-1], 1.0)):
        problems.append("objective trace increases")
    if noiseless and not mse < NOISELESS_MSE:
        problems.append(f"noiseless mse {mse:.3e} is not below {NOISELESS_MSE:g}")
    return problems


@dataclass
class SweepWorkload:
    """Scenes observed at a cycle of SNRs, fused by solve_coupled."""

    name: str
    scene: scenegen.SceneConfig
    snr_cycle: tuple
    solver_config: solver.SolverConfig
    reference_ops: int
    # No stored reference: solver work is expected to change the iterates,
    # so solver output is bounded by the quality metrics instead.
    reference: list | None = None
    solutions: list = field(default_factory=list)

    @property
    def round_size(self):
        return len(self.snr_cycle)

    def setup(self, workdir):
        return scenegen.build_spatial_response(
            self.scene.width, self.scene.height, kernel=self.scene.kernel,
            kernel_size=self.scene.kernel_size, variance=self.scene.kernel_var,
            factor=self.scene.factor,
        )

    def install_hooks(self, patcher):
        """Keep every Solution by a pass-through wrapper on solve_coupled."""
        solve = solver.solve_coupled

        def keep(*args, **kwargs):
            solution = solve(*args, **kwargs)
            self.solutions.append(solution)
            return solution

        patcher.rebind(solve, keep)

    def run_op(self, spatial, seed, index):
        config = experiment.ExperimentConfig(
            scene=self.scene, snr_db=list(self.snr_cycle), trials=1,
            solver=self.solver_config, master_seed=seed,
        )
        k = index % self.round_size
        snr = self.snr_cycle[k]
        self.solutions.clear()
        record = experiment.run_trial(config, spatial, snr, k, index // self.round_size)
        return TrialOutput(record, math.isinf(snr), list(self.solutions))

    def finish(self, output, reference=None):
        if len(output.solutions) != 1:
            return [f"expected one solve per trial, saw {len(output.solutions)}"]
        return solution_problems(output.solutions[0], output.noiseless, output.record.mse)

    def quality(self, outputs):
        """(objective_final, mse): means over the given trials."""
        return (float(np.mean([o.record.objective for o in outputs])),
                float(np.mean([o.record.mse for o in outputs])))


# ---------------------------------------------------------------------------
# certify-files: the CLI path, generate then certify through files
# ---------------------------------------------------------------------------

@dataclass
class CertifyOutput:
    directory: Path
    generate_code: int
    certify_code: int
    certificate_text: str


def _close(actual, expected):
    return abs(actual - expected) <= RELATIVE_TOLERANCE * abs(expected)


def certificate_problems(payload, reference=None):
    """Checks on a parsed certificate; ``reference`` is a stored entry,
    whose pixel_bounds are run-length encoded as [[value, count], ...]."""
    problems = []
    for key in ("full_rank", "sparsity", "pure_pixels"):
        condition = payload["assumptions"][key]
        if not condition["passed"]:
            problems.append(f"{key} failed: {condition['detail']}")
    if reference is not None:
        if payload["kruskal"] != reference["kruskal"]:
            problems.append(f"kruskal {payload['kruskal']} != {reference['kruskal']}")
        for key in ("dominance", "condition"):
            if not _close(payload[key], reference[key]):
                problems.append(f"{key} {payload[key]!r} != {reference[key]!r}")
        bounds = np.asarray(payload["pixel_bounds"], dtype=float)
        values, counts = zip(*reference["pixel_bounds"])
        expected = np.repeat(values, counts)
        if bounds.shape != expected.shape or not np.all(
                np.abs(bounds - expected) <= RELATIVE_TOLERANCE * np.abs(expected)):
            problems.append("pixel_bounds differ from the stored reference")
    return problems


@dataclass
class CertifyFilesWorkload:
    """Each op: ``hsrfusion generate`` then ``hsrfusion certify`` in-process."""

    name: str
    scene: scenegen.SceneConfig
    reference_ops: int
    reference: list | None
    round_size: int = 1

    def setup(self, workdir):
        config_path = Path(workdir) / "scene.json"
        config_path.write_text(json.dumps(dataclasses.asdict(self.scene)), encoding="utf-8")
        return config_path

    def install_hooks(self, patcher):
        pass

    def run_op(self, config_path, seed, index):
        out = config_path.parent / f"op-{index}"
        with contextlib.redirect_stdout(io.StringIO()):
            generate_code = cli.main([
                "generate", "--config", str(config_path),
                "--seed", str(child_seed(seed, index)), "--out", str(out),
            ])
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            certify_code = cli.main([
                "certify",
                "--endmembers", str(out / "endmembers.csv"),
                "--abundances", str(out / "abundances.csv"),
                "--spectral", str(out / "spectral.csv"),
                "--spatial", str(out / "spatial.json"),
            ])
        return CertifyOutput(out, generate_code, certify_code, printed.getvalue())

    def finish(self, output, reference=None):
        """Check the op's certificate and delete its scene directory."""
        try:
            if (output.generate_code, output.certify_code) != (0, 0):
                return [f"exit codes generate={output.generate_code} "
                        f"certify={output.certify_code}"]
            try:
                payload = json.loads(output.certificate_text)
            except json.JSONDecodeError as exc:
                return [f"certificate JSON does not parse: {exc}"]
            return certificate_problems(payload, reference)
        finally:
            shutil.rmtree(output.directory, ignore_errors=True)

    def quality(self, outputs):
        # No solve happens here. Every end-to-end metric must be reported on
        # every workload and none may be 0, so a constant 1.0 stands in.
        return 1.0, 1.0


# ---------------------------------------------------------------------------
# The workloads by name
# ---------------------------------------------------------------------------

def _desk_sweep(small):
    return SweepWorkload(
        name="desk-sweep",
        scene=scenegen.SceneConfig(
            sr_bands=50, ms_bands=6, materials=6, width=16, height=16, factor=2,
            max_support=3, kernel="uniform", kernel_size=2, require_dominance=False),
        snr_cycle=(15.0, 25.0, 35.0, math.inf),
        solver_config=solver.SolverConfig(
            materials=6, max_outer=5 if small else 500, inner_steps=15,
            rel_tol=1e-11, objective_floor=1e-20),
        reference_ops=4,
    )


def _scene_64(small):
    return SweepWorkload(
        name="scene-64",
        scene=scenegen.SceneConfig(
            sr_bands=50, ms_bands=6, materials=6, width=64, height=64, factor=4,
            max_support=3, kernel="gaussian", kernel_size=6, kernel_var=1.0,
            require_dominance=False),
        snr_cycle=(30.0,),
        solver_config=solver.SolverConfig(materials=6, max_outer=2 if small else 20),
        reference_ops=3,
    )


def _certify_files(small):
    side, materials = (16, 6) if small else (64, 12)
    reference = None
    if not small:
        stored = json.loads((REFERENCE_DIR / "certify-files.json").read_text(encoding="utf-8"))
        reference = stored["ops"]
    return CertifyFilesWorkload(
        name="certify-files",
        scene=scenegen.SceneConfig(
            sr_bands=50, ms_bands=8, materials=materials, width=side, height=side,
            factor=4, max_support=3, kernel="uniform", kernel_size=4,
            require_dominance=False),
        reference_ops=2,
        reference=reference,
    )


WORKLOADS = {
    "desk-sweep": _desk_sweep,
    "scene-64": _scene_64,
    "certify-files": _certify_files,
}


def make(name, small=False):
    return WORKLOADS[name](small)
