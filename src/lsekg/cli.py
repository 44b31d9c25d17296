"""Command-line entry points: synth | train | eval | inspect.

Config precedence is built-in defaults < profile < config file (key=value
lines) < explicit flags. A split's own flag (--train, --valid, --test) beats
its file under --data DIR. Exit codes: 0 ok, 1 internal error, 2 input/IO,
3 vocabulary/shape consistency.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from lsekg import ConsistencyError, InputError, LsekgError
from lsekg.data import (build_dataset, build_filter_index, detect_patterns,
                        encode_split, load_split)
from lsekg.evaluation import TIE_POLICIES, aggregate, evaluate, report
from lsekg.models import ModelKind, lemma_diagnostics
from lsekg.sampling import SamplerConfig
from lsekg.synth import PATTERNS, generate
from lsekg.training import (NORMS, TrainConfig,
                            load_checkpoint, save_checkpoint, train)

OUTPUT_DIR_ENV = "LSEKG_OUT"

PROFILES = {
    # full-scale settings (the WN18RR protocol row)
    "paper": {
        "dim": 200, "margin": 6.0, "p": 1, "learning_rate": 5e-4,
        "batch_size": 512, "negatives": 1024, "loss": "margin",
        "max_steps": 100_000, "eval_every": 2000, "patience": 5,
        "mode": "bernoulli",
    },
    # scaled-down settings for CPU desk runs; for TransE, entity rows are
    # kept on the unit sphere, which stabilizes the short margin-loss
    # budget (the other kinds ignore normalize_entities)
    "desk": {
        "dim": 32, "margin": 6.0, "p": 1, "learning_rate": 0.1,
        "batch_size": 128, "negatives": 64, "loss": "margin",
        "max_steps": 5000, "eval_every": 500, "patience": 100,
        "mode": "bernoulli", "normalize_entities": True,
    },
}

# sampler fields set under their profile names; the sampler seed is `seed`
_SAMPLER_KEYS = {"negatives": "negatives_per_positive", "mode": "mode",
                 "filter_false_negatives": "filter_false_negatives"}
# `train` flags not spelled --<key with - for _>
_FLAG_ALIASES = {"learning_rate": ("--lr",), "mode": ("--sampling-mode",),
                 "negatives": ("--negatives", "-k")}
_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _fields(cls) -> dict[str, tuple[type, tuple | None]]:
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("choices"))
            for f in dataclasses.fields(cls)}


def _config_keys() -> dict[str, tuple[type, tuple | None]]:
    keys = _fields(TrainConfig)
    del keys["sampler"]
    sampler = _fields(SamplerConfig)
    return keys | {key: sampler[name] for key, name in _SAMPLER_KEYS.items()}


# every config-file key and `train` flag: key -> (type, choices or None)
CONFIG_KEYS = _config_keys()


def _default_out() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, ".")


def _read_config_file(path) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise InputError(f"{path}:{lineno}: expected key=value")
                values[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_value(kind: type, text: str):
    """`text` as a `kind`; a bool is a `_BOOLEANS` key, in any case."""
    return _BOOLEANS[text.lower()] if kind is bool else kind(text)


def _resolve_train_config(args) -> TrainConfig:
    resolved = dict(PROFILES[args.profile])
    if args.config:
        for key, text in _read_config_file(args.config).items():
            if key not in CONFIG_KEYS:
                raise InputError(f"unknown config key {key!r}")
            kind = CONFIG_KEYS[key][0]
            try:
                resolved[key] = _parse_value(kind, text)
            except (KeyError, ValueError):
                raise InputError(f"{args.config}: {key}={text!r} is not "
                                 f"{kind.__name__}") from None
    for key in CONFIG_KEYS:
        if getattr(args, key) is not None:
            resolved[key] = getattr(args, key)
    sampler = {name: resolved.pop(key) for key, name in _SAMPLER_KEYS.items()
               if key in resolved}
    try:
        config = TrainConfig(**resolved, sampler=SamplerConfig(**sampler))
    except ValueError as exc:
        raise InputError(f"invalid training config: {exc}") from exc
    config.sampler.seed = config.seed  # one seed for init, sampling, shuffle
    return config


# the splits that a subcommand may name by their own flag
_SPLIT_FLAGS = ("train", "valid", "test")


def _split_path(args, name: str) -> str | None:
    """The file of split `name`: its own flag where the subcommand has
    one, else `<--data>/<name>.txt`, else None."""
    if name in _SPLIT_FLAGS and getattr(args, name, None):
        return getattr(args, name)
    if args.data:
        return os.path.join(args.data, f"{name}.txt")
    return None


def _rank_and_report(params, triples: np.ndarray, filter_index, p: int,
                     tie_policy: str, threads: int, out: str) -> None:
    """Rank `triples` as shards triples[i::threads], the non-empty ones and
    at least one, on at most one thread per core; print the report and
    write `metrics.txt` to `out`. One shard is the whole split in order, as
    a direct `evaluate` ranks it."""
    shards = max(1, min(threads, len(triples)))
    with ThreadPoolExecutor(min(shards, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(evaluate, params, triples[i::threads],
                               filter_index, p, tie_policy)
                   for i in range(shards)]
        records = [rec for fut in futures for rec in fut.result()[1]]
    metrics = aggregate(records, tie_policy)
    print(report(metrics), end="")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "metrics.txt"), "w", encoding="utf-8") as f:
        f.write(report(metrics, format="structured"))


def _banner(kind: ModelKind, config: TrainConfig, n_e: int, n_r: int) -> None:
    d = config.dim
    rel_storage = n_r * d * d if kind.uses_matrix else n_r * d
    print(f"model={kind.value} n_e={n_e} n_r={n_r} d={d}")
    print(f"parameter storage: entities={n_e * d} relations={rel_storage} "
          f"total={n_e * d + rel_storage}")
    print("resolved config:")
    for key, value in sorted(config.to_dict().items()):
        print(f"  {key}={value}")


def cmd_synth(args) -> int:
    splits = generate(args.pattern, args.entities, args.facts, args.holdout,
                      args.seed)
    out = args.out or _default_out()
    splits.write(out)
    print(f"wrote {len(splits.train)} train / {len(splits.valid)} valid / "
          f"{len(splits.test)} test triples to {out}")
    return 0


def cmd_train(args) -> int:
    config = _resolve_train_config(args)
    kind = ModelKind(args.model)
    paths = {name: _split_path(args, name) for name in _SPLIT_FLAGS}
    if paths["train"] is None:
        raise InputError("no training file: pass --data DIR or --train FILE")
    if not os.path.exists(paths["train"]):
        raise InputError(f"training file not found: {paths['train']}")
    # a missing valid or test file is an empty split
    dataset = build_dataset(**{
        name: load_split(path) if path and os.path.exists(path) else []
        for name, path in paths.items()})
    _banner(kind, config, dataset.vocabulary.n_e, dataset.vocabulary.n_r)

    out = args.out or _default_out()
    os.makedirs(out, exist_ok=True)
    log_lines = []

    def log(record):
        line = (f"step={record['step']} loss={record['loss']:.6f} "
                f"valid_mrr={record['valid_mrr']}")
        print(line)
        log_lines.append(line)

    ckpt = train(dataset, kind, config, log=log)
    ckpt_path = os.path.join(out, f"{kind.value}.ckpt")
    save_checkpoint(ckpt, ckpt_path)
    print(f"best checkpoint (step {ckpt.step}, "
          f"valid mrr {ckpt.best_valid_mrr}) -> {ckpt_path}")
    if log_lines:
        with open(os.path.join(out, "train_log.txt"), "w",
                  encoding="utf-8") as f:
            f.write("\n".join(log_lines) + "\n")

    if len(dataset.test):
        filter_index = build_filter_index(
            [dataset.train, dataset.valid, dataset.test], list(_SPLIT_FLAGS))
        _rank_and_report(ckpt.params, dataset.test, filter_index, config.p,
                         "mean", 1, out)
    return 0


def cmd_eval(args) -> int:
    if args.threads < 1:
        raise InputError(f"--threads must be at least 1, not {args.threads}")
    ckpt = load_checkpoint(args.checkpoint)
    splits = {}  # name -> encoded split, each file read once

    def split(name: str) -> np.ndarray:
        if name not in splits:
            path = _split_path(args, name)
            if path is None:
                raise InputError(
                    "pass --test FILE or --data DIR" if name == "test" else
                    f"--filter-with {name} needs --data DIR to locate the "
                    "file")
            splits[name] = encode_split(ckpt.vocabulary, load_split(path),
                                        name)
        return splits[name]

    # the ranked split is the `test` filter split
    eval_set = split("test")
    names = [s.strip() for s in args.filter_with.split(",") if s.strip()]
    filter_index = build_filter_index([split(name) for name in names], names)
    p = args.p if args.p is not None else ckpt.config.p
    _rank_and_report(ckpt.params, eval_set, filter_index, p, args.tie_policy,
                     args.threads, args.out or _default_out())
    return 0


# `inspect`'s line per lemma record: the pattern's header, then its
# residual as a map's or as TransE's translation norm
_PATTERN_LINES = {
    "symmetric": ("symmetric {0} (score {score:.2f}):",
                  " ||r||={residual:.4f} ratio={norm_ratio:.4f}"),
    "inverse": ("inverse {0} ~ {1} (score {score:.2f}):",
                " ||r1+r2||={residual:.4f}"),
    "composition": ("composition {0} o {1} -> {2} (support {support}):",
                    " ||r1+r2-r3||={residual:.4f}"),
}
_MAP_RESIDUAL = " map residual {residual:.4f}"


def cmd_inspect(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    train_path = _split_path(args, "train")
    if train_path is None:
        raise InputError("pass --train FILE or --data DIR")
    train_set = encode_split(ckpt.vocabulary, load_split(train_path),
                             "train")
    stats = detect_patterns(train_set)
    params = ckpt.params
    diag = lemma_diagnostics(params, stats)

    print(f"model={params.kind.value} d={params.d} step={ckpt.step}")
    print(f"mean entity norm: {diag['mean_entity_norm']:.4f}")
    name = ckpt.vocabulary.id_to_relation
    for r in sorted(stats):
        s = stats[r]
        print(f"relation {name[r]}: n={s.n_triples} tph={s.tph:.2f} "
              f"hpt={s.hpt:.2f} symmetry={s.symmetry_score:.2f}")
    transe = params.kind is ModelKind.TRANSE
    for pattern, (header, translation) in _PATTERN_LINES.items():
        line = header + (translation if transe else _MAP_RESIDUAL)
        for rec in diag[pattern]:
            print(line.format(*(name[r] for r in rec["relations"]), **rec))
    if not (diag["symmetric"] or diag["inverse"] or diag["composition"]):
        print("no relation patterns detected above thresholds")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsekg",
        description="Location-sensitive knowledge graph embeddings: "
                    "training, evaluation, and pattern diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic pattern "
                                           "graph as TSV splits")
    p_synth.add_argument("--pattern", choices=PATTERNS, required=True)
    p_synth.add_argument("--entities", type=int, default=40)
    p_synth.add_argument("--facts", type=int, default=200)
    p_synth.add_argument("--holdout", type=float, default=0.5)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", help="output directory "
                                       f"(default ${OUTPUT_DIR_ENV} or .)")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train a model and write the "
                                           "best checkpoint")
    p_train.add_argument("--model", required=True,
                         choices=[k.value for k in ModelKind])
    p_train.add_argument("--data", help="directory with train/valid/test.txt")
    p_train.add_argument("--train")
    p_train.add_argument("--valid")
    p_train.add_argument("--test")
    p_train.add_argument("--profile", choices=sorted(PROFILES),
                         default="desk")
    p_train.add_argument("--config", help="key=value config file")
    for key, (kind, choices) in CONFIG_KEYS.items():
        names = _FLAG_ALIASES.get(key, ("--" + key.replace("_", "-"),))
        if kind is bool:
            p_train.add_argument(*names, dest=key, action="store_const",
                                 const=True)
        else:
            p_train.add_argument(*names, dest=key, type=kind,
                                 choices=choices)
    p_train.add_argument("--out")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a test "
                                         "split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data")
    p_eval.add_argument("--test")
    p_eval.add_argument("--filter-with", default="train,valid,test",
                        help="comma-separated splits for the filtered "
                             "setting")
    p_eval.add_argument("--p", type=int, choices=NORMS, dest="p")
    p_eval.add_argument("--tie-policy", default="mean",
                        choices=TIE_POLICIES)
    p_eval.add_argument("--threads", type=int, default=1)
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser("inspect", help="relation-pattern and "
                                               "linear-map diagnostics")
    p_inspect.add_argument("--checkpoint", required=True)
    p_inspect.add_argument("--data")
    p_inspect.add_argument("--train")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # an I/O failure exits 2 as bad input does: inputs raise InputError
    # naming their file, so an OSError here is an --out that cannot be
    # made or written
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LsekgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
