"""Command-line entry points: synth | train | eval | inspect.

Config precedence is built-in defaults < profile < config file (key=value
lines) < explicit flags. Exit codes: 0 ok, 1 internal error, 2 input/IO,
3 vocabulary/shape consistency.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from lsekg import ConsistencyError, InputError, LsekgError
from lsekg.data import (Dataset, build_dataset, build_filter_index,
                        detect_patterns, load_split)
from lsekg.evaluation import aggregate, evaluate, report
from lsekg.models import ModelKind, lemma_diagnostics
from lsekg.sampling import SamplerConfig
from lsekg.synth import PATTERNS, generate
from lsekg.training import (Checkpoint, TrainConfig, load_checkpoint,
                            save_checkpoint, train)

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

_FLAG_KEYS = ("dim", "margin", "p", "learning_rate", "batch_size",
              "negatives", "loss", "max_steps", "eval_every", "patience",
              "mode")


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


def _resolve_train_config(args) -> tuple[TrainConfig, dict]:
    resolved = dict(PROFILES[args.profile])
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key not in resolved and key not in (
                    "seed", "filter_false_negatives", "normalize_entities"):
                raise InputError(f"unknown config key {key!r}")
            current = resolved.get(key)
            if isinstance(current, bool) or key in ("filter_false_negatives",
                                                    "normalize_entities"):
                resolved[key] = value.lower() in ("1", "true", "yes")
            else:
                convert = str
                if isinstance(current, float):
                    convert = float
                elif isinstance(current, int) or key == "seed":
                    convert = int
                try:
                    resolved[key] = convert(value)
                except ValueError:
                    raise InputError(
                        f"{args.config}: {key}={value!r} is not "
                        f"{convert.__name__}") from None
    for key in _FLAG_KEYS:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    resolved.setdefault("seed", 0)
    if args.seed is not None:
        resolved["seed"] = args.seed
    if args.filter_false_negatives:
        resolved["filter_false_negatives"] = True
    if args.normalize_entities:
        resolved["normalize_entities"] = True

    try:
        sampler = SamplerConfig(
            mode=resolved["mode"],
            negatives_per_positive=resolved["negatives"],
            filter_false_negatives=bool(
                resolved.get("filter_false_negatives", False)),
            seed=resolved["seed"],
        )
        config = TrainConfig(
            loss=resolved["loss"], margin=resolved["margin"],
            p=resolved["p"], learning_rate=resolved["learning_rate"],
            batch_size=resolved["batch_size"], dim=resolved["dim"],
            max_steps=resolved["max_steps"],
            eval_every=resolved["eval_every"],
            patience=resolved["patience"], seed=resolved["seed"],
            normalize_entities=bool(
                resolved.get("normalize_entities", False)),
            sampler=sampler,
        )
    except ValueError as exc:
        raise InputError(f"invalid training config: {exc}") from exc
    return config, resolved


def _split_paths(args) -> dict[str, str]:
    if args.data:
        return {name: os.path.join(args.data, f"{name}.txt")
                for name in ("train", "valid", "test")}
    paths = {}
    for name in ("train", "valid", "test"):
        path = getattr(args, name, None)
        if path:
            paths[name] = path
    if "train" not in paths:
        raise InputError("no training file: pass --data DIR or --train FILE")
    return paths


def _load_dataset(paths: dict[str, str]) -> Dataset:
    raw = {}
    for name in ("train", "valid", "test"):
        path = paths.get(name)
        if path is None:
            raw[name] = []
        elif not os.path.exists(path):
            if name == "train":
                raise InputError(f"training file not found: {path}")
            raw[name] = []
        else:
            raw[name] = load_split(path)
    return build_dataset(raw["train"], raw["valid"], raw["test"])


def _encode_split(raw_triples, vocabulary, what: str):
    encoded = []
    for h, r, t in raw_triples:
        if (h not in vocabulary.entity_to_id
                or t not in vocabulary.entity_to_id
                or r not in vocabulary.relation_to_id):
            raise ConsistencyError(
                f"{what}: triple ({h}, {r}, {t}) is outside the checkpoint "
                "vocabulary")
        encoded.append(vocabulary.encode((h, r, t)))
    return tuple(encoded)


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
    config, _ = _resolve_train_config(args)
    kind = ModelKind(args.model)
    dataset = _load_dataset(_split_paths(args))
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

    if dataset.test:
        filter_index = build_filter_index(
            [dataset.train, dataset.valid, dataset.test],
            ["train", "valid", "test"])
        metrics, _ = evaluate(ckpt.params, dataset.test, filter_index,
                              config.p)
        print(report(metrics))
        with open(os.path.join(out, "metrics.txt"), "w",
                  encoding="utf-8") as f:
            f.write(report(metrics, format="structured"))
    return 0


def _parallel_evaluate(params, triples, filter_index, p, tie_policy,
                       threads: int):
    chunks = [triples[i::threads] for i in range(threads)]
    records = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(evaluate, params, chunk, filter_index, p,
                               tie_policy)
                   for chunk in chunks if chunk]
        for fut in futures:
            records.extend(fut.result()[1])
    return aggregate(records, tie_policy), records


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    vocab = ckpt.vocabulary
    test_path = args.test or (args.data and os.path.join(args.data,
                                                         "test.txt"))
    if not test_path:
        raise InputError("pass --test FILE or --data DIR")
    eval_set = _encode_split(load_split(test_path), vocab, "test split")

    filter_splits = []
    names = [s.strip() for s in args.filter_with.split(",") if s.strip()]
    for name in names:
        if args.data:
            path = os.path.join(args.data, f"{name}.txt")
        elif name == "test":
            path = test_path
        else:
            raise InputError(
                f"--filter-with {name} needs --data DIR to locate the file")
        filter_splits.append(
            _encode_split(load_split(path), vocab, f"{name} split"))
    filter_index = build_filter_index(filter_splits, names)

    p = args.p if args.p is not None else ckpt.config.p
    if args.threads > 1:
        metrics, _ = _parallel_evaluate(ckpt.params, eval_set, filter_index,
                                        p, args.tie_policy, args.threads)
    else:
        metrics, _ = evaluate(ckpt.params, eval_set, filter_index, p,
                              args.tie_policy)
    print(report(metrics), end="")
    out = args.out or _default_out()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "metrics.txt"), "w", encoding="utf-8") as f:
        f.write(report(metrics, format="structured"))
    return 0


def cmd_inspect(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    train_path = args.train or (args.data and os.path.join(args.data,
                                                           "train.txt"))
    if not train_path:
        raise InputError("pass --train FILE or --data DIR")
    train_set = _encode_split(load_split(train_path), ckpt.vocabulary,
                              "train split")
    stats = detect_patterns(train_set)
    diag = lemma_diagnostics(ckpt.params, stats)

    print(f"model={ckpt.kind.value} d={ckpt.d} step={ckpt.step}")
    print(f"mean entity norm: {diag['mean_entity_norm']:.4f}")
    name = ckpt.vocabulary.id_to_relation
    for r in sorted(stats):
        s = stats[r]
        print(f"relation {name[r]}: n={s.n_triples} tph={s.tph:.2f} "
              f"hpt={s.hpt:.2f} symmetry={s.symmetry_score:.2f}")
    for rec in diag["symmetric"]:
        r = rec["relation"]
        line = (f"symmetric {name[r]} (score {rec['symmetry_score']:.2f}):")
        if "residual" in rec:
            line += f" map residual {rec['residual']:.4f}"
        if "translation_norm" in rec:
            line += (f" ||r||={rec['translation_norm']:.4f} "
                     f"ratio={rec['norm_ratio']:.4f}")
        print(line)
    for rec in diag["inverse"]:
        line = (f"inverse {name[rec['r1']]} ~ {name[rec['r2']]} "
                f"(score {rec['score']:.2f}):")
        if "residual" in rec:
            line += f" map residual {rec['residual']:.4f}"
        if "translation_sum_norm" in rec:
            line += f" ||r1+r2||={rec['translation_sum_norm']:.4f}"
        print(line)
    for rec in diag["composition"]:
        line = (f"composition {name[rec['r1']]} o {name[rec['r2']]} -> "
                f"{name[rec['r3']]} (support {rec['support']}):")
        if "residual" in rec:
            line += f" map residual {rec['residual']:.4f}"
        if "translation_residual_norm" in rec:
            line += f" ||r1+r2-r3||={rec['translation_residual_norm']:.4f}"
        print(line)
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
    p_train.add_argument("--dim", type=int)
    p_train.add_argument("--margin", type=float)
    p_train.add_argument("--p", type=int, choices=(1, 2), dest="p")
    p_train.add_argument("--lr", type=float, dest="learning_rate")
    p_train.add_argument("--batch-size", type=int, dest="batch_size")
    p_train.add_argument("--negatives", "-k", type=int)
    p_train.add_argument("--loss", choices=("margin", "ce"))
    p_train.add_argument("--max-steps", type=int, dest="max_steps")
    p_train.add_argument("--eval-every", type=int, dest="eval_every")
    p_train.add_argument("--patience", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--sampling-mode", choices=("uniform", "bernoulli"),
                         dest="mode")
    p_train.add_argument("--filter-false-negatives", action="store_true")
    p_train.add_argument("--normalize-entities", action="store_true")
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
    p_eval.add_argument("--p", type=int, choices=(1, 2), dest="p")
    p_eval.add_argument("--tie-policy", default="mean",
                        choices=("optimistic", "pessimistic", "mean"))
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
    except InputError as exc:
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
