"""Workload inputs and the measured pipeline.

Each workload writes its triple files from the seed, then runs rounds of
the pipeline a user runs: read and encode the splits, index them, train,
write the checkpoint, read a checkpoint, and rank. Every round does the same
operations (`Workload.steps` training steps, then a head and a tail query
per ranked triple); rounds repeat until the run's seconds are used.

Two loops are timed from outside the library: the training steps after the
first (timestamped by `train()`'s `log` callback, which it calls every step
since `eval_every` = 1 and the training set has no validation split) and
the `evaluate` calls. The rest of a round is its set-up.

Every timing is read from `clock`, the CPU time of the thread that runs the
library, which excludes the time the process waits for a CPU. On a shared
host that wait comes and goes with other machines' load (`steal` in
/proc/stat), and in wall time it slowed whole stretches of a run by up to
half; README.md ("Clock") gives the measurements. The wall-clock rates are
kept as well, for the run's printed summary.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from lsekg import data, evaluation, training
from lsekg.models import ModelKind
from lsekg.sampling import NegativeSampler, SamplerConfig

import checks

SPLITS = ("train", "valid", "test")
MIN_ROUNDS = 3
CHECKED_QUERIES = 16  # ranking records per round recomputed by the checks
CAPACITY_FLOOR = 0.95  # criterion 7's train-set filtered hits@1
MEMORIZE_RELATIONS = 3  # criterion 7's graph

clock = time.thread_time

# WN18RR (Dettmers et al. 2018): 40,943 entities, 11 relations, and the
# per-relation training counts of its train split, most frequent first
WN18RR_ENTITIES = 40_943
WN18RR_RELATION_COUNTS = (34_796, 29_715, 7_402, 4_816, 3_116, 2_921,
                          1_299, 1_138, 923, 629, 80)
WN18RR_SPLITS = (86_835, 3_034, 3_134)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: ModelKind
    config: dict  # TrainConfig fields; sampler fields under "sampler"
    steps: int  # training steps per round
    # triples per `evaluate` call (consecutive slices of the test split), or
    # None for the whole train split; `rank_calls` calls per round
    rank: int | None
    rank_calls: int
    make_triples: Callable[[int], dict]  # seed -> split -> (n, 3) ids
    # extra set-ups per round (a one-step pipeline without ranking), where
    # set-up is too short for the rounds alone to give a steady median
    setup_repeats: int = 0
    # None: rank with the checkpoint just trained. Otherwise rank with a
    # checkpoint of freshly initialised parameters of this dimension,
    # written once before the rounds and read in every round
    rank_dim: int | None = None

    @property
    def check_step(self) -> bool:
        """Whether the checks recompute a training step: they cover the
        `ce` step of LSE_d only."""
        return self.kind is ModelKind.LSE_D and self.config["loss"] == "ce"

    def train_config(self, seed: int, **overrides) -> training.TrainConfig:
        fields = dict(self.config)
        sampler = SamplerConfig(**fields.pop("sampler"), seed=seed)
        fields.update(overrides)
        return training.TrainConfig(**fields, sampler=sampler, seed=seed)


def memorize_triples(seed: int, n_triples: int = 200,
                     n_entities: int = 50) -> dict:
    """Criterion 7's graph: the first `n_triples` distinct random triples,
    in sorted order, over `n_entities` and `MEMORIZE_RELATIONS`."""
    rng = np.random.default_rng(seed)
    raw: set[tuple[int, int, int]] = set()
    while len(raw) < n_triples:
        draws = rng.integers(0, [n_entities, MEMORIZE_RELATIONS, n_entities],
                             size=(n_triples, 3))
        raw.update(map(tuple, draws.tolist()))
    names = sorted((f"e{h}", f"r{r}", f"e{t}") for h, r, t in raw)
    train = np.array([(int(h[1:]), int(r[1:]), int(t[1:]))
                      for h, r, t in names[:n_triples]])
    empty = np.zeros((0, 3), dtype=np.int64)
    return {"train": train, "valid": empty, "test": empty}


def wn18rr_shaped_triples(seed: int, n_entities: int = WN18RR_ENTITIES,
                          relation_counts=WN18RR_RELATION_COUNTS,
                          splits=WN18RR_SPLITS) -> dict:
    """A random graph with WN18RR's size and relation frequencies.

    Heads and tails are drawn from a power law over a random order of the
    entities (weight 1 / (i + 10)^0.8), so a few hub entities recur, as
    hypernym targets do. Every entity occurs in the train split; no triple
    repeats and none is a self-loop.
    """
    rng = np.random.default_rng(seed)
    n_train = splits[0]
    counts = np.round(np.asarray(relation_counts, dtype=float)
                      * n_train / sum(relation_counts)).astype(np.int64)
    counts[0] += n_train - counts.sum()
    total = sum(splits)
    freq = counts / counts.sum()
    rels = np.concatenate([np.repeat(np.arange(len(counts)), counts),
                           rng.choice(len(counts), size=total - n_train,
                                      p=freq)])
    weight = 1.0 / (np.arange(n_entities) + 10.0) ** 0.8
    weight /= weight.sum()
    head_order = rng.permutation(n_entities)
    tail_order = rng.permutation(n_entities)

    def draw(order, size):
        return order[rng.choice(n_entities, size=size, p=weight)]

    heads, tails = draw(head_order, total), draw(tail_order, total)
    # pair up a random order of all entities in random train triples
    cover = rng.permutation(n_entities)
    slots = rng.choice(n_train, size=(n_entities + 1) // 2, replace=False)
    heads[slots] = cover[0::2]
    tails[slots] = np.roll(cover, -1)[0::2]
    fixed = np.zeros(total, dtype=bool)
    fixed[slots] = True
    # covering triples have distinct heads and no self-loops; they come
    # first, so a duplicate of one is redrawn on the other side
    order = np.argsort(~fixed, kind="stable")
    while True:
        keys = ((heads * len(counts) + rels) * n_entities + tails)[order]
        redraw = np.ones(total, dtype=bool)
        redraw[order[np.unique(keys, return_index=True)[1]]] = False
        redraw |= heads == tails
        redraw &= ~fixed
        n = int(redraw.sum())
        if not n:
            break
        heads[redraw], tails[redraw] = draw(head_order, n), draw(tail_order,
                                                                  n)
    triples = np.stack([heads, rels, tails], axis=1)
    train_rows = rng.permutation(n_train)
    bounds = np.cumsum(splits)
    return {"train": triples[train_rows],
            "valid": triples[bounds[0]:bounds[1]],
            "test": triples[bounds[1]:bounds[2]]}


def write_splits(triples: dict, directory: str) -> None:
    for split in SPLITS:
        with open(os.path.join(directory, f"{split}.txt"), "w",
                  encoding="utf-8") as f:
            f.writelines(f"e{h}\tr{r}\te{t}\n"
                         for h, r, t in triples[split].tolist())


# the settings are pinned here, not read from `cli.PROFILES` or the
# acceptance tests, so that a change there does not change a workload
DESK = {"dim": 32, "margin": 6.0, "p": 1, "learning_rate": 0.1,
        "batch_size": 128, "loss": "margin", "normalize_entities": True,
        "eval_every": 1,
        "sampler": {"mode": "bernoulli", "negatives_per_positive": 64}}

CRITERION_10 = {"dim": 100, "margin": 6.0, "p": 1, "learning_rate": 5e-4,
                "batch_size": 512, "loss": "ce", "eval_every": 1,
                "sampler": {"mode": "bernoulli", "negatives_per_positive": 64,
                            "filter_false_negatives": True}}

# a cache-resident run with few active rows and a WN18RR-scale run with
# every row active; README.md says which layers each one stresses
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="memorize-lse",
            kind=ModelKind.LSE, config=DESK, steps=2000, rank=None,
            rank_calls=25,
            make_triples=memorize_triples, setup_repeats=10),
        Workload(
            name="wnshape-lse_d",
            kind=ModelKind.LSE_D, config=CRITERION_10, steps=4, rank=8,
            rank_calls=4, make_triples=wn18rr_shaped_triples,
            rank_dim=200),
    )
}


@dataclass
class RoundResult:
    setup_s: list[float]  # the round's, then its repeats'
    positives: int  # positive triples of steps 2..n
    step_s: list[float]  # duration of steps 2..n
    rank_s: float  # duration of the `evaluate` calls
    queries: int
    operations: int
    # wall time of steps 2..n and of the `evaluate` calls
    step_wall_s: float = 0.0
    rank_wall_s: float = 0.0


@dataclass
class RunResult:
    rounds: list[RoundResult] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(r.operations for r in self.rounds)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Set-up is a median over set-ups. The rates are total work over
        total timed time: the host's speed shifts between a fast and a slow
        state that lasts from seconds to minutes, and a median of per-call
        rates snaps to whichever state held most of a run, where a ratio of
        totals weighs each state by the time it held. All times are
        `clock` times."""
        rounds = self.rounds
        return {
            "setup_s": (statistics.median(
                x for r in rounds for x in r.setup_s), "s"),
            "train_triples_per_s": (
                sum(r.positives for r in rounds)
                / sum(sum(r.step_s) for r in rounds), "1/s"),
            "eval_queries_per_s": (
                sum(r.queries for r in rounds)
                / sum(r.rank_s for r in rounds), "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def wall_rates(self) -> dict[str, float]:
        """The two rates in wall time, which counts the time the process
        waited for a CPU."""
        rounds = self.rounds
        return {
            "train_triples_per_s": sum(r.positives for r in rounds)
            / sum(r.step_wall_s for r in rounds),
            "eval_queries_per_s": sum(r.queries for r in rounds)
            / sum(r.rank_wall_s for r in rounds),
        }


def batch_sizes(n_train: int, batch_size: int) -> list[int]:
    """Positives per step over one epoch: `train()` walks a reshuffled
    epoch in batches of `batch_size`, the last one partial."""
    b = min(batch_size, n_train)
    return [min(b, n_train - start) for start in range(0, n_train, b)]


class Pipeline:
    """Runs one workload's rounds on its written inputs."""

    def __init__(self, workload: Workload, seed: int, directory: str,
                 triples: dict, tracer=None):
        self.w = workload
        self.seed = seed
        self.dir = directory
        self.triples = triples
        self.tracer = tracer
        self.config = workload.train_config(seed, max_steps=workload.steps)
        self._known_for = None  # (vocabulary, its KnownTriples)
        self.rank_path = os.path.join(directory, "model.ckpt")
        if workload.rank_dim is not None:
            self.rank_path = os.path.join(directory, "rank.ckpt")
            training.save_checkpoint(training.train(
                dataclasses.replace(self._read(), valid=()), workload.kind,
                dataclasses.replace(self.config, dim=workload.rank_dim,
                                    max_steps=0)), self.rank_path)

    def run(self, seconds: float, min_rounds: int = MIN_ROUNDS) -> RunResult:
        result = RunResult()
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            result.rounds.append(self.round())
            took = time.perf_counter() - t0
            # the first round pays the process's lazy set-up, so a run has
            # at least MIN_ROUNDS and its set-up median comes from a warm
            # round; past that, a round starts only if it ends nearer
            # `seconds`
            if (len(result.rounds) >= min_rounds
                    and time.perf_counter() - start + took / 2 > seconds):
                break
        result.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result

    def round(self) -> RoundResult:
        w, cfg = self.w, self.config
        stamps: list[float] = []
        walls: list[float] = []
        losses: list[float] = []

        def log(record):
            stamps.append(clock())
            walls.append(time.perf_counter())
            losses.append(record["loss"])

        self._trace(True)
        t0 = clock()
        dataset, known, ckpt = self._train(cfg, log)
        t_rank = clock()
        ranked = []
        rank_wall = 0.0
        for queries in self._rank_sets(dataset):
            t, wall = clock(), time.perf_counter()
            metrics, records = evaluation.evaluate(ckpt.params, queries,
                                                   known, cfg.p)
            ranked.append((queries, metrics, records, clock() - t))
            rank_wall += time.perf_counter() - wall
        self._trace(False)

        if len(stamps) != w.steps:
            raise checks.CheckFailed(
                f"{len(stamps)} steps logged, {w.steps} asked for")
        checks.check_losses(losses, w.steps)
        self.check_ranking(ckpt, ranked)
        if w.rank is None:
            self.check_capacity(ckpt)
        setups = [(stamps[0] - t0) + (t_rank - stamps[-1])]
        setups += [self._set_up() for _ in range(w.setup_repeats)]

        sizes = batch_sizes(len(dataset.train), cfg.batch_size)
        queries = sum(len(rec) for _, _, rec, _ in ranked)
        return RoundResult(
            setup_s=setups,
            positives=sum(sizes[i % len(sizes)] for i in range(1, w.steps)),
            step_s=np.diff(stamps).tolist(),
            rank_s=sum(dt for *_, dt in ranked), queries=queries,
            operations=w.steps + w.setup_repeats + queries,
            step_wall_s=walls[-1] - walls[0], rank_wall_s=rank_wall)

    def _train(self, cfg, log):
        """Read, encode and index the splits, train, write the trained
        checkpoint and read the ranking one: a round's work before
        ranking."""
        dataset = self._read()
        known = data.build_filter_index(
            [dataset.train, dataset.valid, dataset.test], SPLITS)
        ckpt = training.train(dataclasses.replace(dataset, valid=()),
                              self.w.kind, cfg, log)
        training.save_checkpoint(ckpt, os.path.join(self.dir, "model.ckpt"))
        return dataset, known, training.load_checkpoint(self.rank_path)

    def _read(self):
        return data.build_dataset(*(
            data.load_split(os.path.join(self.dir, f"{s}.txt"))
            for s in SPLITS))

    def _set_up(self) -> float:
        """Time the work before ranking with a single training step."""
        losses = []
        t0 = clock()
        self._train(dataclasses.replace(self.config, max_steps=1),
                    lambda record: losses.append(record["loss"]))
        took = clock() - t0
        checks.check_losses(losses, 1)
        return took

    def _rank_sets(self, dataset) -> list:
        if self.w.rank is None:
            return [dataset.train] * self.w.rank_calls
        n = self.w.rank
        return [dataset.test[i * n:(i + 1) * n]
                for i in range(self.w.rank_calls)]

    def _trace(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.active = on

    def _ids(self, vocab, split: str) -> np.ndarray:
        """The benchmark's own triples of a split, in the program's ids."""
        ent, rel = vocab.entity_to_id, vocab.relation_to_id
        return np.array([(ent[f"e{h}"], rel[f"r{r}"], ent[f"e{t}"])
                         for h, r, t in self.triples[split].tolist()],
                        dtype=np.int64).reshape(-1, 3)

    def _known(self, vocab) -> checks.KnownTriples:
        """The benchmark's filter sets in the program's ids, built again
        only when the program's vocabulary changes."""
        key = (vocab.entity_to_id, vocab.relation_to_id)
        if self._known_for is None or self._known_for[0] != key:
            self._known_for = (key, checks.KnownTriples(np.concatenate(
                [self._ids(vocab, s) for s in SPLITS])))
        return self._known_for[1]

    def check_ranking(self, ckpt, ranked) -> None:
        """Check every `evaluate` call of a round; the records recomputed
        are a seeded sample, `CHECKED_QUERIES` in all."""
        vocab = ckpt.vocabulary
        own = self._ids(vocab, "train" if self.w.rank is None else "test")
        known = self._known(vocab)
        rng = np.random.default_rng(self.seed)
        per_call = max(1, CHECKED_QUERIES // len(ranked))
        for i, (queries, metrics, records, _) in enumerate(ranked):
            own_queries = (own if self.w.rank is None
                           else own[i * self.w.rank:(i + 1) * self.w.rank])
            if not np.array_equal(own_queries,
                                  np.array(queries).reshape(-1, 3)):
                raise checks.CheckFailed(
                    "the program's ranked triples are not the benchmark's")
            sample = rng.choice(len(records), replace=False,
                                size=min(per_call, len(records)))
            checks.check_records(ckpt.params, own_queries, records, metrics,
                                 known, sample)

    def check_capacity(self, ckpt) -> None:
        """Criterion 7: the trained model ranks each training triple first
        among the candidates not known to be true."""
        vocab = ckpt.vocabulary
        hits = checks.filtered_hits_at_1(ckpt.params,
                                         self._ids(vocab, "train"),
                                         self._known(vocab))
        if hits < CAPACITY_FLOOR:
            raise checks.CheckFailed(f"train-set filtered hits@1 is "
                                     f"{hits:.4f}, below {CAPACITY_FLOOR}")

    def record_first_steps(self) -> list[dict]:
        """Run the first step again, twice, with its negative batch
        recorded: at the workload's margin, then with the margin at the
        median energy of that batch. At the workload's margin the logistic
        terms of the ce loss may all sit near 0 or 1, where a wrong
        derivative moves no parameter by more than rounding; at the median
        they are mid-range. The seed fixes the batch, which the margin does
        not change. Each record holds the margin, the parameters before and
        after the step, the batch, and the sampler's redraw-cap hits."""
        dataset = dataclasses.replace(self._read(), valid=())
        before = training.train(dataset, self.w.kind, dataclasses.replace(
            self.config, max_steps=0)).params
        vocab = dataset.vocabulary
        train_keys = checks.triple_keys(self._ids(vocab, "train"), vocab.n_e,
                                        vocab.n_r)

        def record(margin: float) -> dict:
            batches = []
            original = NegativeSampler.corrupt_batch

            def recording(sampler, positives):
                hits = sampler.redraw_cap_hits
                neg = original(sampler, positives)
                batches.append((np.array(positives), neg.copy(),
                                sampler.redraw_cap_hits - hits))
                return neg

            NegativeSampler.corrupt_batch = recording
            try:
                after = training.train(dataset, self.w.kind,
                                       dataclasses.replace(
                                           self.config, margin=margin,
                                           max_steps=1)).params
            finally:
                NegativeSampler.corrupt_batch = original
            if len(batches) != 1:
                raise checks.CheckFailed(
                    f"one step drew {len(batches)} negative batches")
            pos, neg, cap_hits = batches[0]
            return {"margin": margin, "before": before, "after": after,
                    "pos": pos, "neg": neg, "cap_hits": cap_hits,
                    "n_e": vocab.n_e, "n_r": vocab.n_r,
                    "train_keys": train_keys}

        first = record(self.config.margin)
        mid = record(checks.median_batch_energy(before, first["pos"],
                                                first["neg"]))
        if not (np.array_equal(first["pos"], mid["pos"])
                and np.array_equal(first["neg"], mid["neg"])):
            raise checks.CheckFailed("the seeded first batch changed with "
                                     "the margin")
        return [first, mid]

    def check_one_step(self, step: dict) -> float:
        """Compare a recorded step's negatives and parameters with the
        benchmark's own; returns the largest touched-row difference."""
        checks.check_negatives(step["pos"], step["neg"], step["n_e"],
                               step["train_keys"], step["n_r"],
                               step["cap_hits"])
        return checks.check_step(step["before"], step["after"], step["pos"],
                                 step["neg"], step["margin"],
                                 self.config.learning_rate)
