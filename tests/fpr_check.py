"""Empirical false-positive rate of detection over fresh keys, at c01's sizes.

    python tests/fpr_check.py [--keys 10000]

Trains c01's clean student (order 3, 300 clean 400-token teacher documents)
and makes one readout per mode: open, 110 watermarked 400-token documents
read out greedily; closed, 90 clean 13-token prompts completed with 280
tokens.  Each readout is scored under ``--keys`` fresh ``derive_run_key``
keys for KGW and for AK.  The student never saw text of those keys, so H0
holds and the count of p <= alpha should follow Binomial(keys, alpha).
The script prints one line per mode and scheme: rows read, time a key,
mean p, and for each alpha in {1e-1, 1e-2, 1e-3} the count against its
two-sided band of probability 0.999, fixed before the run.  It exits 1 if
a count leaves its band.  It is a script, not a test: pytest does not
collect it; ``test_readout.py`` runs a smaller version in tier-1.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy.stats  # noqa: E402

from radioscope import (SamplingConfig, contaminated_student, derive_run_key,  # noqa: E402
                        detect_closed, detect_open, generate_corpus, make_teacher)
from radioscope.models import PROMPT_TOKENS  # noqa: E402
from test_readout import cfg, readout, rescore  # noqa: E402

TEXT_SEED, SCORE_SEED = 5100, 5200
ALPHAS = (1e-1, 1e-2, 1e-3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, default=10_000)
    n_keys = parser.parse_args().keys
    bands = {alpha: tuple(int(b) for b in scipy.stats.binom.interval(0.999, n_keys, alpha))
             for alpha in ALPHAS}
    teacher = make_teacher(vocab_size=128, seed=7)
    sampling = SamplingConfig(seed=50)
    student, _, _ = contaminated_student(teacher, None, 0.0, n_docs=300, doc_len=400,
                                         order=3, sampling=sampling)
    docs = generate_corpus(teacher, 110, 400, replace(sampling, seed=51),
                           wm=cfg("kgw", derive_run_key(TEXT_SEED, 0)))
    prompts = [doc["tokens"] for doc in generate_corpus(
        teacher, 90, 10 + PROMPT_TOKENS, replace(sampling, seed=52))]
    text_cfg = cfg("kgw", derive_run_key(TEXT_SEED, 1))
    readouts = {
        "open": readout(detect_open, student, docs, text_cfg),
        "closed": readout(detect_closed, student, prompts, text_cfg,
                          sampling=replace(sampling, seed=53, max_tokens=280)),
    }
    outside = 0
    for mode, args in readouts.items():
        for scheme in ("kgw", "ak"):
            t0 = time.perf_counter()
            ps = np.array([rescore(args, cfg(scheme, derive_run_key(SCORE_SEED, i))).p_value
                           for i in range(n_keys)])
            per_key_ms = (time.perf_counter() - t0) / n_keys * 1e3
            parts = []
            for alpha, (lo, hi) in bands.items():
                count = int((ps <= alpha).sum())
                inside = lo <= count <= hi
                outside += not inside
                parts.append(f"p <= {alpha:g}: {count} in [{lo}, {hi}]"
                             + ("" if inside else " OUTSIDE"))
            print(f"{mode} {scheme}: {len(args[0])} rows, {n_keys} keys, "
                  f"{per_key_ms:.1f} ms a key, mean p {ps.mean():.3f}; " + "; ".join(parts),
                  flush=True)
    print(f"{outside} counts outside their bands" if outside else "all counts inside their bands")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
