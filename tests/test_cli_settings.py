"""``cli._SETTINGS``: every setting a flag sets, a config file sets the same
way, and README "Configuration" lists each setting as the commands read it."""

import math
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
          "seed": 5, "nucleus_p": 0.9, "budget": 50, "docs": 4, "doc_len": 25}
#: What every run sets unless it tests that setting: the corpus and model are V = 32
BASE = {"docs": 3, "doc_len": 20, "vocab_size": 32}
#: The scheme of the runs of a setting that not every scheme reads
SCHEME = {"temp": "ak", "message": "mpac"}


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
    base += ["--scheme", SCHEME[name]] if name in SCHEME else []
    outputs = []
    for source in ("flag", "config"):
        out = tmp_path / source
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {VALUES[name]}\n")
        given = [flags[name], str(VALUES[name])] if source == "flag" else ["--config", str(cfg)]
        assert main(_argv(command, out, *inputs) + base + given) == EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert outputs[0] and outputs[0] == outputs[1]


#: The flags that select each scheme
SCHEME_FLAGS = {"kgw": [], "ak": ["--scheme", "ak"],
                "mpac": ["--scheme", "mpac", "--message", "0110"]}
#: Each run whose reads README's table names: its command and its value of
#: each axis the command's runs vary along (the scheme, detection's mode)
READING_RUNS = [*[("generate", {"scheme": scheme}) for scheme in SCHEME_FLAGS], ("train", {}),
                *[("detect", {"scheme": scheme, "mode": mode})
                  for scheme in ("kgw", "ak") for mode in ("open", "closed")],
                ("filter", {})]


def test_readme_lists_every_setting(tmp_path, monkeypatch, inputs):
    """README "Configuration" holds one row per setting, in table order: its
    flag, its default as a file would write it, and the commands that read
    it.  A command's note names the schemes or modes that read the setting,
    where not all do, and "config only" where the command has no flag for it."""
    monkeypatch.delenv("RADIOSCOPE_KEY", raising=False)
    read = {name: {} for name in _SETTINGS}  # setting -> command -> the axes of its runs
    resolve, seen = cli._resolve, set()

    def spy(args, config, name):
        seen.add(name)
        return resolve(args, config, name)

    monkeypatch.setattr(cli, "_resolve", spy)
    for i, (command, axes) in enumerate(READING_RUNS):
        argv = _argv(command, tmp_path / str(i), *inputs) + SCHEME_FLAGS[axes.get("scheme", "kgw")]
        if command == "detect":
            argv[argv.index("--mode") + 1] = axes["mode"]
        seen.clear()
        assert main(argv + (["--vocab-size", "32"] if command != "filter" else [])) == EXIT_OK
        for name in seen:
            read[name].setdefault(command, []).append(axes)

    flags = _flags()

    def notes(name, command):
        """The schemes or modes of the command's runs that read the setting,
        on each axis where not all of them do, then "config only"."""
        runs = read[name][command]
        every = [axes for c, axes in READING_RUNS if c == command]
        picked = []
        for axis in every[0]:
            values = list(dict.fromkeys(axes[axis] for axes in runs))
            if len(values) < len({axes[axis] for axes in every}):
                picked += values
        # the runs that read it are every run of the values it names
        assert len(runs) == math.prod(len({axes[axis] for axes in runs}) for axis in every[0])
        if name not in flags[command] and any(name in f for f in flags.values()):
            picked.append("config only")
        return picked

    def row(name):
        flag = next((f[name] for f in flags.values() if name in f), None)
        default = _SETTINGS[name][0]
        readers = ", ".join(f"`{command}`" + (f" ({', '.join(notes(name, command))})"
                                              if notes(name, command) else "")
                            for command in read[name])
        return (name, f"`{flag}`" if flag else "config only",
                "unset" if default is None else f"`{default}`", readers)

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("| Key | Flag | Default | Read by |\n|---|---|---|---|\n", 1)[1]
    rows = [re.match(r"\| `(\w+)` \| ([^|]+?) \| ([^|]+?) \| ([^|]+?) \|$", line).groups()
            for line in table.split("\n\n", 1)[0].splitlines()]
    assert rows == [row(name) for name in _SETTINGS]
