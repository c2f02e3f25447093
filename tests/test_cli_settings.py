"""``cli._SETTINGS``: every setting a flag sets, a config file sets the same
way, and README "Configuration" lists each setting as the commands read it."""

import re
from pathlib import Path

import pytest

from radioscope import cli
from radioscope.cli import EXIT_OK, _SETTINGS, main

KEY_HEX = "0xDEADBEEFCAFE"
COMMANDS = ("generate", "train", "detect", "filter")

#: A value other than the default for each setting a flag sets
VALUES = {"scheme": "ak", "k": 1, "gamma": 0.5, "delta": 2.0, "temp": 1.5,
          "message": "0110", "vocab_size": 32, "order": 4, "smoothing_lambda": 0.1,
          "seed": 5, "nucleus_p": 0.9, "budget": 50, "docs": 4, "doc_len": 25, "reps": 2}
#: What every run sets unless it tests that setting: the corpus and model are V = 32
BASE = {"docs": 3, "doc_len": 20, "vocab_size": 32}


def _subparsers():
    (action,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    return action.choices


def _flags():
    """command -> {setting: its flag} for the setting flags it declares."""
    return {command: {a.dest: a.option_strings[0] for a in parser._actions
                      if a.dest in _SETTINGS}
            for command, parser in _subparsers().items()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("inputs")
    corpus, model = work / "c.jsonl", work / "m.bin"
    assert main(["generate", "--key", KEY_HEX, "--docs", "6", "--doc-len", "40",
                 "--vocab-size", "32", "--out", str(corpus)]) == EXIT_OK
    assert main(["train", "--corpus", str(corpus), "--vocab-size", "32",
                 "--out", str(model)]) == EXIT_OK
    return corpus, model


def _argv(command, out, corpus, model):
    return {
        "generate": ["generate", "--key", KEY_HEX, "--out", str(out / "c.jsonl")],
        "train": ["train", "--corpus", str(corpus), "--out", str(out / "m.bin")],
        "detect": ["detect", "--mode", "closed", "--model", str(model), "--corpus",
                   str(corpus), "--key", KEY_HEX, "--out", str(out)],
        "filter": ["filter", "--corpus", str(corpus), "--out", str(out / "phi.bin")],
    }[command]


@pytest.mark.parametrize("command, name", [
    (command, name) for name in _SETTINGS for command in COMMANDS if name in _flags()[command]])
def test_flag_and_config_give_the_same_run(tmp_path, monkeypatch, inputs, command, name):
    """Outputs other than the manifest are byte-identical whether the value
    comes from the setting's flag or from a ``--config`` file."""
    monkeypatch.delenv("RADIOSCOPE_KEY", raising=False)
    flags = _flags()[command]
    base = [arg for other, value in BASE.items() if other != name and other in flags
            for arg in (flags[other], str(value))]
    outputs = []
    for source in ("flag", "config"):
        out = tmp_path / source
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {VALUES[name]}\n")
        given = [flags[name], str(VALUES[name])] if source == "flag" else ["--config", str(cfg)]
        assert main(_argv(command, out, *inputs) + base + given) == EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert outputs[0] and outputs[0] == outputs[1]


def test_readme_lists_every_setting(tmp_path, monkeypatch, inputs):
    """README "Configuration" holds one row per setting, in table order: its
    flag, its default as a file would write it, and the commands that read
    it (a command without the flag reads it from the config file only)."""
    monkeypatch.delenv("RADIOSCOPE_KEY", raising=False)
    read = {name: [] for name in _SETTINGS}
    resolve = cli._resolve

    def spy(args, config, name):
        if args.command not in read[name]:
            read[name].append(args.command)
        return resolve(args, config, name)

    monkeypatch.setattr(cli, "_resolve", spy)
    for command in COMMANDS:
        argv = _argv(command, tmp_path / command, *inputs)
        assert main(argv + (["--vocab-size", "32"] if command != "filter" else [])) == EXIT_OK

    flags = _flags()

    def row(name):
        flag = next((f[name] for f in flags.values() if name in f), None)
        default = _SETTINGS[name][0]
        readers = ", ".join(f"`{command}`" + (" (config only)" if flag and name not in flags[command]
                                              else "") for command in read[name])
        return (name, f"`{flag}`" if flag else "config only",
                "unset" if default is None else f"`{default}`", readers)

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("| Key | Flag | Default | Read by |\n|---|---|---|---|\n", 1)[1]
    rows = [re.match(r"\| `(\w+)` \| ([^|]+?) \| ([^|]+?) \| ([^|]+?) \|$", line).groups()
            for line in table.split("\n\n", 1)[0].splitlines()]
    assert rows == [row(name) for name in _SETTINGS]
