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
from .hashing import ConfigError, SecretKey
from .models import (
    PROMPT_TOKENS,
    SamplingConfig,
    generate_corpus,
    load_corpus,
    load_model,
    make_teacher,
    save_corpus,
    save_model,
    train_ngram,
)
from .remote import RemoteError, RemoteModel
from .schemes import AK, WatermarkConfig

try:
    from importlib.metadata import version as _pkg_version

    __version__ = _pkg_version("radioscope")
except Exception:  # not installed; running from a checkout
    __version__ = "0.0.0"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


# ---------------------------------------------------------------------------
# config file and key plumbing

def _load_config(path: str | None) -> dict:
    """Plain key=value config; flag values take precedence over these."""
    if not path:
        return {}
    return {key.replace("-", "_"): value
            for _, key, value in pipelines.read_key_values(path)}


def _resolve(args: argparse.Namespace, config: dict, name: str, cast, default):
    """Flag > config file > default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in config:
        return cast(config[name])
    return default


def _resolve_key(args: argparse.Namespace, config: dict) -> SecretKey:
    raw = getattr(args, "key", None) or config.get("key") or os.environ.get(
        "RADIOSCOPE_KEY")
    if raw is None:
        raise ConfigError(
            "no secret key: pass --key, set it in --config, or export "
            "RADIOSCOPE_KEY")
    return SecretKey(int(str(raw), 0))


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, argv: list[str], config: dict,
                    corpus_paths: list, key: SecretKey | None) -> None:
    safe_argv = _redact_key(argv)
    manifest = {
        "command": safe_argv,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "corpus_hashes": {str(p): _hash_file(p) for p in corpus_paths},
        "key_fingerprint": key.fingerprint() if key is not None else None,
        "version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _redact_key(argv: list[str]) -> list[str]:
    out = []
    skip = False
    for arg in argv:
        if skip:
            out.append("<redacted>")
            skip = False
        elif arg == "--key":
            out.append(arg)
            skip = True
        elif arg.startswith("--key="):
            out.append("--key=<redacted>")
        else:
            out.append(arg)
    return out


def _wm_config(args, config, key: SecretKey, vocab_size: int) -> WatermarkConfig:
    scheme = _resolve(args, config, "scheme", str, "kgw")
    delta = _resolve(args, config, "delta", float, 3.0)
    if scheme == AK and getattr(args, "delta", None) is not None:
        raise ConfigError("--delta does not apply to the ak scheme "
                          "(use --temp to control strength)")
    return WatermarkConfig(
        scheme=scheme,
        key=key,
        vocab_size=vocab_size,
        k=_resolve(args, config, "k", int, 2),
        gamma=_resolve(args, config, "gamma", float, 0.25),
        delta=delta,
        temperature=_resolve(args, config, "temp", float, None),
        message=_resolve(args, config, "message", str, None),
    )


def _sampling(args, config) -> SamplingConfig:
    return SamplingConfig(
        temperature=_resolve(args, config, "sampling_temperature", float, 0.8),
        nucleus_p=_resolve(args, config, "nucleus_p", float, 0.95),
        max_tokens=_resolve(args, config, "max_tokens", int, 256),
        seed=_resolve(args, config, "seed", int, 0),
    )


# ---------------------------------------------------------------------------
# commands

def cmd_generate(args, config, argv) -> int:
    key = None
    wm = None
    vocab = _resolve(args, config, "vocab_size", int, 128)
    if not args.no_watermark:
        key = _resolve_key(args, config)
        wm = _wm_config(args, config, key, vocab)
    sampling = _sampling(args, config)
    n_docs = _resolve(args, config, "docs", int, 100)
    doc_len = _resolve(args, config, "doc_len", int, 200)
    if n_docs < 0:  # zero documents make an empty corpus
        raise ConfigError(f"--docs must be >= 0, got {n_docs}")
    if doc_len < PROMPT_TOKENS:  # generate_corpus starts each document with a prompt
        raise ConfigError(f"--doc-len must be >= {PROMPT_TOKENS}, the prompt length, "
                          f"got {doc_len}")
    teacher = make_teacher(vocab_size=vocab,
                           seed=_resolve(args, config, "teacher_seed", int, 7),
                           order=_resolve(args, config, "teacher_order", int, 2))
    docs = generate_corpus(teacher, n_docs, doc_len, sampling, wm=wm)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_corpus(docs, out)
    _write_manifest(out.parent, argv, config, [out], key)
    print(f"wrote {len(docs)} documents to {out}")
    return EXIT_OK


def cmd_train(args, config, argv) -> int:
    corpus = load_corpus(args.corpus)
    order = _resolve(args, config, "order", int, 3)
    k = _resolve(args, config, "k", int, 2)
    if order < k + 1:
        warnings.warn(
            f"student order {order} < k+1 = {k + 1}: the model cannot "
            "memorize full watermark windows", stacklevel=2)
    model = train_ngram([doc["tokens"] for doc in corpus], order,
                        _resolve(args, config, "smoothing_lambda", float, 0.01),
                        _resolve(args, config, "vocab_size", int, 128))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    _write_manifest(out.parent, argv, config, [Path(args.corpus), out], None)
    print(f"trained order-{order} model on {len(corpus)} documents -> {out}")
    return EXIT_OK


def cmd_detect(args, config, argv) -> int:
    if args.filter and args.mode == OPEN:
        raise ConfigError("--filter applies to closed mode only")
    if args.threads is not None and not args.endpoint:
        raise ConfigError("--threads sets the requests in flight to --endpoint; "
                          "it needs --endpoint")
    key = _resolve_key(args, config)
    vocab = _resolve(args, config, "vocab_size", int, 128)
    wm = _wm_config(args, config, key, vocab)
    budget = _resolve(args, config, "budget", int, 1_000_000)
    reps = _resolve(args, config, "reps", int, 1)
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
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
    reports = []
    out_dir = Path(args.out)
    chunks = [docs[i::reps] for i in range(reps)]
    try:
        for chunk in chunks:
            if not chunk:
                continue
            if args.mode == OPEN:
                report = pipelines.detect_open(suspect, chunk, wm, budget=budget,
                                               dedup=not args.no_dedup)
            else:
                prompts = [doc["tokens"] for doc in chunk]
                report = pipelines.detect_closed(
                    suspect, prompts, wm, phi=phi, budget=budget,
                    sampling=sampling, dedup=not args.no_dedup)
            reports.append(report)
    except pipelines.DetectionInterrupted as exc:
        _write_report(out_dir, key, reports + [exc.partial])
        raise
    if args.no_dedup:
        print("WARNING: de-duplication disabled; the reported p-values are "
              "statistically INVALID", file=sys.stderr)
    _write_report(out_dir, key, reports)
    _write_manifest(out_dir, argv, config, [Path(args.corpus)], key)
    for report in reports:
        print(f"{report.mode} n_scored={report.n_scored} "
              f"score={report.score:.3f} log10_p={report.log10_p:.3f}")
    if all(r.inconclusive for r in reports):
        print("inconclusive: no eligible tuples were scored", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _write_report(out_dir: Path, key: SecretKey, reports: list) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "key_fingerprint": key.fingerprint(),
        "mean_p": sum(r.p_value for r in reports) / len(reports),
        "mean_log10_p": sum(r.log10_p for r in reports) / len(reports),
        "runs": [dataclasses.asdict(r) for r in reports],
    }
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_scenario(args, config, argv) -> int:
    out = pipelines.run_scenario(args.spec, args.out)
    _write_manifest(out, argv, config, [Path(args.spec)], None)
    print(f"scenario artifacts in {out}")
    return EXIT_OK


def cmd_mia(args, config, argv) -> int:
    suspect = load_model(args.model)
    candidate = load_corpus(args.candidate)
    fresh = load_corpus(args.fresh)
    d, p, report = pipelines.mia_detect(suspect, candidate, fresh)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, argv, config,
                    [Path(args.candidate), Path(args.fresh)], None)
    print(f"mia d={d:.4f} p={p:.6g} "
          f"(skipped {report['skipped']} documents without text)")
    return EXIT_OK


def cmd_filter(args, config, argv) -> int:
    corpus = load_corpus(args.corpus)
    k = _resolve(args, config, "k", int, 2)
    phi = build_filter([doc["tokens"] for doc in corpus], k,
                       source=str(args.corpus))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_filter(phi, out)
    _write_manifest(out.parent, argv, config, [Path(args.corpus), out], None)
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

    p = sub.add_parser("generate", help="sample a corpus from the teacher")
    common(p)
    p.add_argument("--scheme", choices=["kgw", "ak", "mpac"], default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--temp", type=float, default=None)
    p.add_argument("--message", default=None)
    p.add_argument("--nucleus-p", type=float, default=None, dest="nucleus_p")
    p.add_argument("--docs", type=int, default=None)
    p.add_argument("--doc-len", type=int, default=None, dest="doc_len")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--vocab-size", type=int, default=None, dest="vocab_size")
    p.add_argument("--no-watermark", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train an n-gram student on a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--smoothing-lambda", type=float, default=None,
                   dest="smoothing_lambda")
    p.add_argument("--vocab-size", type=int, default=None, dest="vocab_size")
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
    p.add_argument("--scheme", choices=["kgw", "ak", "mpac"], default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--temp", type=float, default=None)
    p.add_argument("--vocab-size", type=int, default=None, dest="vocab_size")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--reps", type=int, default=None,
                   help="split the corpus into this many disjoint runs")
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "detect" and not args.model and not args.endpoint:
        print("error: detect needs --model or --endpoint", file=sys.stderr)
        return EXIT_ERROR
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config, argv)
    except (ConfigError, ValueError, OSError, RemoteError,
            pipelines.DetectionInterrupted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
