"""The loop oracles look contexts up in a ``DictNGramModel`` twin, never in
the ``NGramModel`` they check, so a defect in the model's lookup cannot sit
on both sides of a comparison."""

import contextlib
from unittest import mock

import numpy as np
import pytest

from radioscope import SamplingConfig, SecretKey, WatermarkConfig, generate_corpus, train_ngram
from radioscope.models import NGramModel
from radioscope.pipelines import _complete, detect_open
from dedup_oracle import loop_detect_open
from ngram_oracle import train_dict_ngram
from sampler_oracle import LoopTextSampler, loop_complete, loop_generate_corpus
import store_contract as contract
from test_candidate_table import assert_same_report

#: Every way the model finds a context or reads what it found.
LOOKUPS = ("_context_ids", "_locate", "_distributions", "greedy_at", "next_greedy")

SAMPLING = SamplingConfig(seed=24, max_tokens=20)
WM = WatermarkConfig("kgw", SecretKey(0xBEEF), 16, k=2)

#: Every loop that reads a model -> a call of it on ``model`` (or its twin).
LOOPS = {
    "LoopTextSampler": lambda model, corpus: LoopTextSampler(model, SAMPLING),
    "loop_generate_corpus": lambda model, corpus: loop_generate_corpus(model, 8, 40,
                                                                       SAMPLING, WM),
    "loop_complete": lambda model, corpus: loop_complete(model, [d[:4] for d in corpus],
                                                         SAMPLING),
    "loop_detect_open": lambda model, corpus: loop_detect_open(model, corpus, WM),
}


@pytest.fixture(scope="module")
def trained():
    """An order-3, V = 16 model and the corpus it was trained on."""
    rng = np.random.default_rng(23)
    corpus = rng.integers(0, 16, size=(6, 60)).tolist()
    return train_ngram(corpus, 3, 0.05, 16), corpus


def _broken(*args, **kwargs):
    raise AssertionError("a loop oracle called the model's lookup")


@pytest.mark.parametrize("loop", LOOPS.values(), ids=list(LOOPS))
def test_the_loops_refuse_the_model_itself(trained, loop):
    model, corpus = trained
    with pytest.raises(TypeError, match="^the loop oracles take a DictNGramModel twin, "
                                        "not NGramModel$"):
        loop(model, corpus)


@pytest.mark.parametrize("source", ["corpus", "counts"])
def test_the_loops_run_on_twins_with_every_model_lookup_broken(trained, source):
    """With each of the model's lookups patched to raise, the loops
    reproduce the library's corpus, completions and open report, on a twin
    trained on the corpus and on one read from the model's counts."""
    model, corpus = trained
    prompts = [doc[:4] for doc in corpus]
    corpus_want = generate_corpus(model, 8, 40, SAMPLING, WM)
    completions_want = _complete(model, prompts, SAMPLING, None)
    report_want = detect_open(model, corpus, WM)
    assert report_want.n_scored > 0
    twin = train_dict_ngram(corpus, 3, 0.05, 16)
    if source == "counts":
        twin, trained_twin = contract.twin(model), twin
        assert twin.counts == trained_twin.counts
    with contextlib.ExitStack() as patches:
        for name in LOOKUPS:
            patches.enter_context(mock.patch.object(NGramModel, name, _broken))
        assert LOOPS["loop_generate_corpus"](twin, corpus) == corpus_want
        assert LOOPS["loop_complete"](twin, corpus) == completions_want
        assert_same_report(LOOPS["loop_detect_open"](twin, corpus), report_want)
