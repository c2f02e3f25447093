"""Every name the package exports resolves, none is listed twice, and
every exported function and class has a docstring."""

import inspect

import radioscope


def test_all_names_resolve():
    missing = [name for name in radioscope.__all__ if not hasattr(radioscope, name)]
    assert missing == []


def test_all_names_unique():
    assert len(radioscope.__all__) == len(set(radioscope.__all__))


#: Every export, so that an added or dropped name shows in the diff.
PUBLIC = [
    "AK", "AuthError", "CANDIDATE", "CLOSED", "CapabilityError", "ConfigError",
    "DetectionInterrupted", "DetectionReport", "FilterSet", "InputIntegrityError",
    "KGW", "MPAC", "MixSpec", "NGramModel", "OPEN", "ProtocolError", "RemoteError",
    "RemoteModel", "SamplingConfig", "SecretKey", "StatError", "TextSampler",
    "TransportError", "WatermarkConfig", "build_filter",
    "canonical_dedup", "contaminated_student",
    "derive_run_key", "detect_closed", "detect_open",
    "generate_corpus", "ks_two_sample", "load_corpus", "load_filter",
    "load_model", "log_binomial_pvalue", "log_gamma_pvalue", "make_teacher",
    "mia_detect", "mix_dataset", "mpac_extract", "parse_scenario", "run_detection",
    "run_scenario", "save_corpus", "save_filter", "save_model", "score_batch",
    "train_ngram", "window_hash", "zipf_markov_corpus",
]


def test_all_is_pinned():
    assert radioscope.__all__ == PUBLIC


def test_every_export_has_a_docstring():
    exported = [getattr(radioscope, name) for name in radioscope.__all__]
    bare = [obj.__name__ for obj in exported
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and not inspect.getdoc(obj)]
    assert bare == []
