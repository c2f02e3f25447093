"""Golden pins for the scenario runner: the shipped demo and one small spec
for each other scenario type write byte-identical ``results.csv`` and
``summary.svg`` files, so a refactor of the runner cannot move a number."""

import hashlib
from pathlib import Path

import pytest

from radioscope import run_scenario

DEMO = Path(__file__).parents[1] / "docs" / "examples" / "demo.scn"

SMALL = ["vocab_size = 32", "n_docs = 40", "doc_len = 120", "detect_docs = 8",
         "detect_len = 120", "repetitions = 2", "seed = 3"]

SPECS = {
    "demo": None,
    "k_sweep": ["modes = open, closed"],
    "d_sweep": ["modes = open, closed", "d_values = 1.0, 0.5", "rho_value = 0.5"],
    "purification": ["modes = open"],
}

# md5 of (results.csv, summary.svg)
GOLDEN = {
    "demo": ("d04da58701eb1ff9b832295ddc2bf742",
             "76a4f387a5e4544c9e823e82a3bf57ec"),
    "k_sweep": ("29283a714a5e57f4d95b750278e26567",
                "f3a785811b7fed799968b83f4c157ed1"),
    "d_sweep": ("539450b5122ac8dbf58868af1ce1ad08",
                "5438060b13e07991fbfe2474a0f87257"),
    "purification": ("6d10d7293bd712e1e5398b09574c7a97",
                     "884349b6fdd95ca0536b4d350d1afc21"),
}


def _md5(path: Path) -> str:
    return hashlib.md5(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(SPECS))
def test_scenario_outputs_are_pinned(tmp_path, name):
    spec = DEMO
    if SPECS[name] is not None:
        spec = tmp_path / f"{name}.scn"
        spec.write_text("\n".join([f"scenario = {name}", *SMALL, *SPECS[name]]) + "\n")
    out = run_scenario(spec, tmp_path / "out")
    assert (_md5(out / "results.csv"), _md5(out / "summary.svg")) == GOLDEN[name]
