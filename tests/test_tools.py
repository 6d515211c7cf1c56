"""The repository's tools stay in step with the command line they drive."""

import string
import sys
from pathlib import Path

import pytest

from asterhover.cli import build_parser

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import output_digests  # noqa: E402


def filled(args: list[str]) -> list[str]:
    """`args` with each {placeholder} replaced by a file name."""
    fields = {name for arg in args for _, name, _, _ in string.Formatter().parse(arg) if name}
    return [arg.format(**{name: f"{name}.input" for name in fields}) for arg in args]


@pytest.mark.parametrize("args", [args for _, args, _ in output_digests.RUNS],
                         ids=[run for run, _, _ in output_digests.RUNS])
def test_output_digest_runs_parse_with_the_cli(args):
    # the digest tool appends --out to every command line it runs
    parsed = build_parser().parse_args([*filled(args), "--out", "out"])
    assert parsed.command == args[0]
    assert parsed.out == "out"
