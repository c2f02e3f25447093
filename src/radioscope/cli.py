"""Command-line surface: generation, training, detection, scenarios, MIA.

Every command writes a manifest next to its outputs so that a run can be
reproduced exactly.  Secret keys are accepted via ``--key`` or the
``RADIOSCOPE_KEY`` environment variable and never appear in any output;
manifests and reports carry a truncated hash fingerprint instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
import warnings
from pathlib import Path

from . import pipelines
from .dedup import CLOSED, OPEN, build_filter, load_filter, save_filter
from .hashing import ConfigError, SecretKey, check_value
from .models import (
    CORPUS_RULES,
    SamplingConfig,
    generate_corpus,
    load_corpus,
    load_model,
    make_teacher,
    save_corpus,
    save_model,
    train_ngram,
)
from .pipelines import _SCENARIO_KEYS
from .remote import RemoteError, RemoteModel
from .schemes import AK, KGW, MPAC, WatermarkConfig

try:
    from importlib.metadata import version as _pkg_version

    __version__ = _pkg_version("radioscope")
except Exception:  # not installed; running from a checkout
    __version__ = "0.0.0"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


# ---------------------------------------------------------------------------
# settings, config file and key plumbing

#: Every setting a command reads -> (default, reader, rule or None).  Those
#: shared with scenario files take all three from their ``_SCENARIO_KEYS``
#: entry (``temp`` is the scenario's ``temperature``, ``order`` its
#: ``student_order``), but for the scenario rules that read scenario-only
#: keys: ``scheme`` takes the library's rule, and ``seed`` none.
_SETTINGS = {
    name: _SCENARIO_KEYS[{"temp": "temperature", "order": "student_order"}.get(name, name)]
    for name in ("scheme", "k", "gamma", "delta", "temp", "message", "vocab_size",
                 "teacher_seed", "teacher_order", "order", "smoothing_lambda", "seed",
                 "nucleus_p", "sampling_temperature", "doc_len", "budget")
} | {
    "scheme": (*_SCENARIO_KEYS["scheme"][:2], WatermarkConfig.rules["scheme"]),
    "seed": (*_SCENARIO_KEYS["seed"][:2], None),
    "max_tokens": (SamplingConfig.max_tokens, int, SamplingConfig.rules["max_tokens"]),
    "docs": (100, int, CORPUS_RULES["n_docs"]),
}

# argparse keywords of a setting's flag besides its reader
_FLAG_KEYWORDS = {"scheme": {"choices": [KGW, AK, MPAC]}}


def _read_key(text: str, source: str) -> SecretKey:
    """A secret key as written, decimal or 0x hex; a refusal names its source, not the key."""
    try:
        return SecretKey(int(text, 0))
    except ValueError:
        raise ConfigError(f"{source}: must be an integer in [1, 2**64-2], decimal or 0x "
                          "hex") from None


def _load_config(path: str | None) -> tuple[dict, str]:
    """Plain key=value config; flag values take precedence over these.  Each
    value is read by its setting's reader (the key by :func:`_read_key`) as
    the file is read, and a key no command reads is refused.  Returns each
    setting's value with the file and line that name it, and the SHA-256 of
    the strings as read, which manifests record."""
    config, raw = {}, {}
    for lineno, key, value in pipelines.read_key_values(path) if path else ():
        name = key.replace("-", "_")
        at = f"{path}:{lineno}: {name}"
        if name == "key":
            config[name] = _read_key(value, at), at
        elif name not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        else:
            try:
                config[name] = _SETTINGS[name][1](value), at
            except ValueError as exc:
                raise ValueError(f"{at}: {exc}") from None
        raw[name] = value
    return config, hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


class _Resolved:
    """The other settings a setting's rule reads, each resolved when read."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args, self.config = args, config

    def __getitem__(self, name: str):
        return _resolve(self.args, self.config, name)


def _resolve(args: argparse.Namespace, config: dict, name: str):
    """Flag > config file > the setting's default, checked by the setting's
    rule.  A refusal names the flag, or the file and line, that gave the value."""
    default, _, rule = _SETTINGS[name]
    flag = getattr(args, name, None)
    if flag is not None:
        value, source = flag, "--" + name.replace("_", "-")
    else:
        value, source = config.get(name, (default, name))
    if rule is not None:
        check_value(source, value, rule, _Resolved(args, config))
    return value


def _resolve_key(args: argparse.Namespace, config: dict) -> SecretKey:
    """--key > the config file's key > RADIOSCOPE_KEY."""
    if getattr(args, "key", None):
        return _read_key(args.key, "--key")
    if "key" in config:
        return config["key"][0]
    if "RADIOSCOPE_KEY" in os.environ:
        return _read_key(os.environ["RADIOSCOPE_KEY"], "RADIOSCOPE_KEY")
    raise ConfigError("no secret key: pass --key, set it in --config, or export "
                      "RADIOSCOPE_KEY")


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, manifest: dict, corpus_paths: list,
                    key: SecretKey | None) -> None:
    manifest = {
        **manifest,
        "corpus_hashes": {str(p): _hash_file(p) for p in corpus_paths},
        "key_fingerprint": key.fingerprint() if key is not None else None,
        "version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _redact(argv: list[str], options: dict) -> list[str]:
    """``argv`` with each value of a flag whose destination is ``key`` or
    ``credentials`` redacted, as the flag or a prefix argparse takes for it
    was given; ``options`` maps the command's flags to their actions."""
    out, value = [], False  # whether arg is the value of a secret flag
    for arg in argv:
        flag, eq, _ = arg.partition("=")
        # argparse takes a flag in full, or by a prefix that starts no other flag
        named = [flag] if flag in options else [o for o in options if o.startswith(flag)]
        secret = (not value and flag.startswith("--") and len(named) == 1
                  and options[named[0]].dest in ("key", "credentials"))
        out.append("<redacted>" if value else f"{flag}=<redacted>" if secret and eq else arg)
        value = secret and not eq
    return out


def _wm_config(args, config, key: SecretKey, vocab_size: int, embeds: bool) -> WatermarkConfig:
    """The watermark settings; the strength (``delta``, ``temp``) only for a
    command that ``embeds``, since scoring and its tails read neither."""
    scheme = _resolve(args, config, "scheme")
    strength = {}
    if embeds:
        if scheme == AK and args.delta is not None:
            raise ConfigError("--delta does not apply to the ak scheme "
                              "(use --temp to control strength)")
        strength = {"delta": _resolve(args, config, "delta"),
                    "temperature": _resolve(args, config, "temp")}
    return WatermarkConfig(scheme=scheme, key=key, vocab_size=vocab_size,
                           k=_resolve(args, config, "k"), gamma=_resolve(args, config, "gamma"),
                           message=_resolve(args, config, "message"), **strength)


def _sampling(args, config) -> SamplingConfig:
    return SamplingConfig(
        temperature=_resolve(args, config, "sampling_temperature"),
        nucleus_p=_resolve(args, config, "nucleus_p"),
        max_tokens=_resolve(args, config, "max_tokens"),
        seed=_resolve(args, config, "seed"),
    )


# ---------------------------------------------------------------------------
# commands

def cmd_generate(args, config, manifest) -> int:
    key = None
    wm = None
    vocab = _resolve(args, config, "vocab_size")
    if args.no_watermark:
        given = [name for name in ("scheme", "k", "gamma", "delta", "temp", "message")
                 if getattr(args, name) is not None]  # the watermark's flags
        if given:
            raise ConfigError(f"--{given[0]} does not apply with --no-watermark")
    else:
        key = _resolve_key(args, config)
        wm = _wm_config(args, config, key, vocab, embeds=True)
    sampling = _sampling(args, config)
    n_docs = _resolve(args, config, "docs")
    doc_len = _resolve(args, config, "doc_len")
    teacher = make_teacher(vocab_size=vocab,
                           seed=_resolve(args, config, "teacher_seed"),
                           order=_resolve(args, config, "teacher_order"))
    docs = generate_corpus(teacher, n_docs, doc_len, sampling, wm=wm)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_corpus(docs, out)
    _write_manifest(out.parent, manifest, [out], key)
    print(f"wrote {len(docs)} documents to {out}")
    return EXIT_OK


def cmd_train(args, config, manifest) -> int:
    corpus = load_corpus(args.corpus)
    order = _resolve(args, config, "order")
    k = _resolve(args, config, "k")
    if order < k + 1:
        warnings.warn(
            f"student order {order} < k+1 = {k + 1}: the model cannot "
            "memorize full watermark windows", stacklevel=2)
    model = train_ngram([doc["tokens"] for doc in corpus], order,
                        _resolve(args, config, "smoothing_lambda"),
                        _resolve(args, config, "vocab_size"))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    _write_manifest(out.parent, manifest, [Path(args.corpus), out], None)
    print(f"trained order-{order} model on {len(corpus)} documents -> {out}")
    return EXIT_OK


def cmd_detect(args, config, manifest) -> int:
    if args.mode == OPEN and (args.filter or args.seed is not None):
        raise ConfigError(f"{'--filter' if args.filter else '--seed'} applies to closed "
                          "mode only")
    if args.threads is not None and not args.endpoint:
        raise ConfigError("--threads sets the requests in flight to --endpoint; "
                          "it needs --endpoint")
    if args.credentials is not None and not args.endpoint:
        raise ConfigError("--credentials is the bearer token for --endpoint; "
                          "it needs --endpoint")
    key = _resolve_key(args, config)
    vocab = _resolve(args, config, "vocab_size")
    wm = _wm_config(args, config, key, vocab, embeds=False)
    budget = _resolve(args, config, "budget")
    docs = load_corpus(args.corpus)
    if not docs:
        raise ValueError(f"{args.corpus}: the corpus has no documents")
    phi = load_filter(args.filter) if args.filter else None
    if args.endpoint:
        suspect = RemoteModel(args.endpoint, credentials=args.credentials,
                              max_in_flight=8 if args.threads is None else args.threads)
    else:
        suspect = load_model(args.model)
    sampling = _sampling(args, config)
    out_dir = Path(args.out)
    try:
        if args.mode == OPEN:
            report = pipelines.detect_open(suspect, docs, wm, budget=budget,
                                           dedup=not args.no_dedup)
        else:
            report = pipelines.detect_closed(
                suspect, [doc["tokens"] for doc in docs], wm, phi=phi, budget=budget,
                sampling=sampling, dedup=not args.no_dedup)
    except pipelines.DetectionInterrupted as exc:
        _write_report(out_dir, key, exc.partial)
        raise
    if args.no_dedup:
        print("WARNING: de-duplication disabled; the reported p-values are "
              "statistically INVALID", file=sys.stderr)
    _write_report(out_dir, key, report)
    _write_manifest(out_dir, manifest, [Path(args.corpus)], key)
    print(f"{report.mode} n_scored={report.n_scored} "
          f"score={report.score:.3f} log10_p={report.log10_p:.3f}")
    if report.inconclusive:
        print("inconclusive: no eligible tuples were scored", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _write_report(out_dir: Path, key: SecretKey, report) -> None:
    """``report.json``: the key's fingerprint and the run, as the one entry
    of ``runs``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "key_fingerprint": key.fingerprint(),
        "runs": [dataclasses.asdict(report)],
    }
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_scenario(args, config, manifest) -> int:
    out = pipelines.run_scenario(args.spec, args.out)
    _write_manifest(out, manifest, [Path(args.spec)], None)
    print(f"scenario artifacts in {out}")
    return EXIT_OK


def cmd_mia(args, config, manifest) -> int:
    suspect = load_model(args.model)
    candidate = load_corpus(args.candidate)
    fresh = load_corpus(args.fresh)
    d, p, report = pipelines.mia_detect(suspect, candidate, fresh)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, manifest, [Path(args.candidate), Path(args.fresh)], None)
    print(f"mia d={d:.4f} p={p:.6g} "
          f"(skipped {report['skipped']} documents without text)")
    return EXIT_OK


def cmd_filter(args, config, manifest) -> int:
    corpus = load_corpus(args.corpus)
    k = _resolve(args, config, "k")
    phi = build_filter([doc["tokens"] for doc in corpus], k,
                       source=str(args.corpus))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_filter(phi, out)
    _write_manifest(out.parent, manifest, [Path(args.corpus), out], None)
    print(f"filter with {len(phi)} {k}-grams -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _thread_count(text: str) -> int:
    n = int(text)
    if not 1 <= n <= 64:
        raise argparse.ArgumentTypeError(f"must be in 1..64, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radioscope",
        description="Watermark radioactivity toolkit: generate, train, "
                    "detect, and report.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--key", help="secret watermark key (int, 0x hex ok)")

    def flags(p, *names):
        """A flag per named setting, read by the setting's reader."""
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), type=_SETTINGS[name][1],
                           **_FLAG_KEYWORDS.get(name, {}))

    p = sub.add_parser("generate", help="sample a corpus from the teacher")
    common(p)
    flags(p, "scheme", "k", "gamma", "delta", "temp", "message", "nucleus_p", "docs",
          "doc_len", "seed", "vocab_size")
    p.add_argument("--no-watermark", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train an n-gram student on a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    flags(p, "order", "k", "smoothing_lambda", "vocab_size")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run radioactivity detection")
    common(p)
    p.add_argument("--mode", choices=[OPEN, CLOSED], required=True)
    p.add_argument("--model", help="suspect checkpoint path")
    p.add_argument("--endpoint", help="remote suspect URL (closed mode)")
    p.add_argument("--credentials", help="bearer token for --endpoint")
    p.add_argument("--threads", type=_thread_count, default=None,
                   help="requests in flight to --endpoint (1-64, default 8)")
    p.add_argument("--corpus", required=True,
                   help="watermarked documents (open) or prompt sources (closed)")
    p.add_argument("--filter", help="k-gram filter file (closed mode)")
    flags(p, "scheme", "k", "gamma", "vocab_size", "budget", "seed")
    p.add_argument("--no-dedup", action="store_true",
                   help="score every tuple (INVALID p-values; demo only)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("scenario", help="run a scenario file end to end")
    common(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("mia", help="membership-inference baseline")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--fresh", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mia)

    p = sub.add_parser("filter", help="build a k-gram filter from a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    flags(p, "k")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "detect" and bool(args.model) == bool(args.endpoint):
        print("error: detect takes one suspect: --model or --endpoint", file=sys.stderr)
        return EXIT_ERROR
    try:
        config, config_hash = _load_config(args.config)
        (commands,) = [a for a in parser._actions if a.dest == "command"]
        options = commands.choices[args.command]._option_string_actions
        return args.func(args, config, {"command": _redact(argv, options),
                                        "config_hash": config_hash})
    except (ConfigError, ValueError, OSError, RemoteError,
            pipelines.DetectionInterrupted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
