"""The README's examples run as written: its Python example, every command
line of its "Command line" section and its experiment config."""

import json
import re
import shlex
from pathlib import Path

from hsrfusion import ExperimentConfig, cli, fileio

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language, after=""):
    """The fenced blocks of one language ("" for a bare fence), from the
    first line that starts with ``after`` on."""
    text = _README[_README.index(f"\n{after}"):]
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_the_python_example_runs():
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_every_command_line_parses():
    # A continued line is joined, and an optional part's brackets dropped.
    lines = _blocks("", after="## Command line")[0].replace("\\\n", " ").splitlines()
    commands = [cli.build_parser().parse_args(shlex.split(line.replace("[", "").replace("]", ""))[1:])
                for line in lines if line.startswith("hsrfusion ")]
    assert [args.command for args in commands] == [
        "generate", "observe", "solve", "certify", "align", "counterexample", "dominance",
        "experiment"]


def test_the_experiment_config_example_loads():
    (block,) = _blocks("json", after="An experiment config")
    config = fileio.config_from_dict(ExperimentConfig, json.loads(block))
    assert config.solver.materials == config.scene.materials == 6
