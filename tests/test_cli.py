import shlex

import pytest

from moegather.workbench import cli


def _documented_commands():
    return [
        shlex.split(line.strip())[1:]
        for line in cli.__doc__.splitlines()
        if line.strip().startswith("moegather ")
    ]


@pytest.mark.parametrize("argv", _documented_commands(), ids=lambda argv: argv[0])
def test_documented_command_lines_parse(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


@pytest.mark.parametrize("flag", ["--lambda", "--svd-ratio"])
def test_gather_ratio_spellings(flag):
    argv = ["gather", "--teacher", "t.ckpt", "--method", "svdkg", flag, "0.5", "--out", "s.ckpt"]
    assert cli.build_parser().parse_args(argv).svd_ratio == 0.5


@pytest.mark.parametrize("flag", ["--task", "--split"])
def test_eval_split_spellings(flag):
    assert cli.build_parser().parse_args(["eval", "--model", "m.ckpt", flag, "train"]).task == "train"
