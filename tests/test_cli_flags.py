"""Every flag a command accepts either acts or is refused.

Each run below is one command, under one scheme (or none, for
``generate --no-watermark``) and, for ``detect``, one mode.  Added to it,
each flag the command's parser accepts, with a valid value other than the
default, either changes what the run writes or prints, or ends the run with
exit code 1, one ``error:`` line and nothing written.
The written files are compared without the manifest's ``command`` and
``created`` fields, and with the run's directories written as names.
``train --k`` acts only through its student-order warning on stderr, which
counts as printed.
"""

import json
import warnings

import pytest

from radioscope.cli import EXIT_ERROR, _build_parser, main

KEY_HEX = "0xDEADBEEFCAFE"

#: Each run: ``{in}`` is the inputs' directory and ``{out}`` the run's own
_DETECT = ["detect", "--model", "{in}/m.bin", "--corpus", "{in}/c.jsonl", "--vocab-size", "16",
           "--out", "{out}"]
_GENERATE = ["generate", "--docs", "3", "--doc-len", "40", "--vocab-size", "16",
             "--out", "{out}/c.jsonl"]
RUNS = {
    "generate_kgw": _GENERATE,
    "generate_ak": _GENERATE + ["--scheme", "ak"],
    "generate_mpac": _GENERATE + ["--scheme", "mpac", "--message", "0110"],
    "generate_none": _GENERATE + ["--no-watermark"],
    "train": ["train", "--corpus", "{in}/c.jsonl", "--vocab-size", "16", "--out", "{out}/m.bin"],
    **{f"detect_{scheme}_{mode}": _DETECT + ["--mode", mode, "--scheme", scheme]
       for scheme in ("kgw", "ak") for mode in ("open", "closed")},
    "filter": ["filter", "--corpus", "{in}/c.jsonl", "--out", "{out}/phi.bin"],
    "mia": ["mia", "--model", "{in}/m.bin", "--candidate", "{in}/c.jsonl", "--fresh",
            "{in}/f.jsonl", "--out", "{out}"],
    "scenario": ["scenario", "--spec", "{in}/s.scn", "--out", "{out}"],
}

#: The flags that name what a run reads and where it writes, given by every run
PLACES = {"--out", "--corpus", "--model", "--mode", "--spec", "--candidate", "--fresh"}

#: Each other flag's values, none the default: a run takes the first its
#: command line does not give already (``None``: a flag without a value)
VALUES = {
    "--config": ["{in}/k3.cfg"], "--key": ["0x1234567"],
    "--scheme": ["ak", "mpac"], "--k": ["3"], "--gamma": ["0.5"], "--delta": ["1.0"],
    "--temp": ["1.5"], "--message": ["0110", "1001"], "--nucleus-p": ["0.5"],
    "--docs": ["4"], "--doc-len": ["30"], "--seed": ["5"], "--vocab-size": ["32"],
    "--no-watermark": [None], "--order": ["4"], "--smoothing-lambda": ["0.1"],
    "--budget": ["5"], "--filter": ["{in}/phi.bin"], "--no-dedup": [None],
    "--endpoint": ["http://127.0.0.1:9/"], "--credentials": ["TOKEN"], "--threads": ["4"],
}


def _options(command):
    """The long flags of ``command``'s parser."""
    (action,) = [a for a in _build_parser()._actions if a.dest == "command"]
    parser = action.choices[command]
    return [a.option_strings[-1] for a in parser._actions if a.dest != "help"]


def _added(run):
    """Each flag ``run`` may add, with the arguments that add it."""
    argv = RUNS[run]
    for flag in _options(argv[0]):
        if flag in PLACES or flag in argv and VALUES[flag] == [None]:
            continue  # a place, or a switch the run gives already
        value = next(v for v in VALUES[flag] if flag not in argv or v != argv[argv.index(flag) + 1])
        yield flag, [flag] + ([value] if value is not None else [])


CASES = [(run, flag, added) for run in RUNS for flag, added in _added(run)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A watermarked V = 16 corpus and a clean one, a model trained on the
    first, its 2-gram filter, a config file setting ``k = 3`` and a small
    scenario."""
    inputs = tmp_path_factory.mktemp("inputs")
    sizes = ["--docs", "6", "--doc-len", "40", "--vocab-size", "16"]
    for argv in (["generate", "--key", KEY_HEX, *sizes, "--out", "{in}/c.jsonl"],
                 ["generate", "--no-watermark", *sizes, "--seed", "1", "--out", "{in}/f.jsonl"],
                 ["train", "--corpus", "{in}/c.jsonl", "--vocab-size", "16",
                  "--out", "{in}/m.bin"],
                 ["filter", "--corpus", "{in}/c.jsonl", "--out", "{in}/phi.bin"]):
        assert main([arg.format(**{"in": inputs}) for arg in argv]) == 0
    (inputs / "k3.cfg").write_text("k = 3\n")
    (inputs / "s.scn").write_text("scenario = rho_sweep\nvocab_size = 16\nrho = 0.5\n"
                                  "repetitions = 1\nn_docs = 4\ndoc_len = 10\ndetect_docs = 2\n"
                                  "detect_len = 10\n")
    return inputs


def _outcome(argv, inputs, out, capsys):
    """Exit code, printed lines and written files of one run, with the
    inputs' and the run's directories written as ``{in}`` and ``{out}``."""
    argv = [arg.format(**{"in": inputs, "out": out}) for arg in argv]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()

    def named(text):
        return text.replace(str(out), "{out}").replace(str(inputs), "{in}")

    printed = [named(captured.out), named(captured.err)] + [str(w.message) for w in caught]
    files = {}
    for path in sorted(out.rglob("*")) if out.exists() else ():
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                del manifest["command"], manifest["created"]
                data = named(json.dumps(manifest, sort_keys=True))
            files[named(str(path))] = data
    return code, printed, files


@pytest.fixture(scope="module")
def bases():
    return {}


@pytest.mark.parametrize("run, flag, added", CASES,
                         ids=[f"{run}{flag}" for run, flag, _ in CASES])
def test_each_flag_acts_or_is_refused(tmp_path, inputs, bases, capsys, monkeypatch,
                                      run, flag, added):
    monkeypatch.setenv("RADIOSCOPE_KEY", KEY_HEX)
    if run not in bases:
        bases[run] = _outcome(RUNS[run], inputs, tmp_path / "base", capsys)
        assert bases[run][0] == 0, bases[run][1]
    code, printed, files = _outcome(RUNS[run] + added, inputs, tmp_path / "out", capsys)
    if code == EXIT_ERROR:
        out, err = printed[:2]
        assert not out and err.count("\n") == 1 and err.startswith("error: "), printed
        assert not files
    else:
        assert (code, printed, files) != bases[run], f"{' '.join(added)} changed nothing"
