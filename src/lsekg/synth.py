"""Synthetic pattern graphs for exercising the relation-pattern lemmas.

Each generator emits train/valid/test splits where every held-out triple is
entailed from the training graph by the pattern under test: the reversed
edge (symmetric), the reversed edge under the partner relation (inverse), or
the two-hop closure (composition). Generation is deterministic given the
seed; identical seeds produce byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from lsekg import InputError
from lsekg.data import RawTriple
from lsekg.models import refuse_beyond_memory
from lsekg.seeding import substream

PATTERNS = ("symmetric", "inverse", "composition", "mixed")

# held-out entailed triples are split 20% valid / 80% test
_VALID_SHARE = 0.2


@dataclass
class SynthSplits:
    train: list[RawTriple]
    valid: list[RawTriple]
    test: list[RawTriple]

    def write(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        for name, triples in (("train", self.train), ("valid", self.valid),
                              ("test", self.test)):
            with open(os.path.join(out_dir, f"{name}.txt"), "w",
                      encoding="utf-8", newline="\n") as f:
                for h, r, t in triples:
                    f.write(f"{h}\t{r}\t{t}\n")


def _sample_distinct(rng: np.random.Generator, n_entities: int, count: int,
                     width: int, ordered: bool, what: str
                     ) -> list[tuple[int, ...]]:
    """`count` distinct tuples of `width` distinct entity ids, sorted, each
    from one draw of `width` ids and redrawn while an id repeats. An
    unordered tuple is kept ascending, so no reverse of an edge sneaks into
    the base edge set. Raises `InputError` naming `what` when fewer than
    `count` such tuples exist, and `ConsistencyError` when they would not
    fit in memory."""
    limit = (math.perm if ordered else math.comb)(n_entities, width)
    if count > limit:
        raise InputError(
            f"cannot place {count} {what} on {n_entities} entities")
    # each tuple holds at least `width` 8-byte references
    refuse_beyond_memory(8 * width * count, f"{count} {what}")
    drawn: set[tuple[int, ...]] = set()
    while len(drawn) < count:
        ids = rng.integers(0, n_entities, size=width).tolist()
        if len(set(ids)) == width:
            drawn.add(tuple(ids if ordered else sorted(ids)))
    return sorted(drawn)


def _split_holdout(entailed: list[RawTriple], holdout: float,
                   rng: np.random.Generator
                   ) -> tuple[list[RawTriple], list[RawTriple],
                              list[RawTriple]]:
    """Return (kept-in-train, valid, test) portions of the entailed set."""
    order = rng.permutation(len(entailed))
    n_hold = int(round(holdout * len(entailed)))
    held = [entailed[i] for i in order[:n_hold]]
    kept = [entailed[i] for i in sorted(order[n_hold:])]
    n_valid = int(round(_VALID_SHARE * len(held)))
    return kept, held[:n_valid], held[n_valid:]


def generate(pattern: str, n_entities: int, n_facts: int,
             holdout: float, seed: int,
             relation_prefix: str = "r") -> SynthSplits:
    """Generate one pattern graph.

    `n_facts` counts base edges (symmetric, inverse) or two-hop paths
    (composition). `holdout` is the fraction of entailed triples withheld
    from training.
    """
    if pattern not in PATTERNS:
        raise InputError(f"unknown pattern {pattern!r}")
    if n_entities < 3 or n_facts < 1:
        raise InputError("need at least 3 entities and 1 fact")
    if not 0.0 < holdout < 1.0:
        raise InputError("holdout must be in (0, 1)")
    if seed < 0:
        raise InputError("seed must not be negative")
    rng = substream(seed, "synth")

    if pattern == "mixed":
        third = max(1, n_facts // 3)
        parts = [
            generate("symmetric", n_entities, third, holdout, seed, "sym_"),
            generate("inverse", n_entities, third, holdout, seed + 1, "inv_"),
            generate("composition", n_entities, n_facts - 2 * third, holdout,
                     seed + 2, "comp_"),
        ]
        return SynthSplits(
            train=[t for p in parts for t in p.train],
            valid=[t for p in parts for t in p.valid],
            test=[t for p in parts for t in p.test],
        )

    if pattern == "symmetric":
        r0 = f"{relation_prefix}0"
        base = _sample_distinct(rng, n_entities, n_facts, 2, False, "edges")
        train = [(f"e{a}", r0, f"e{b}") for a, b in base]
        entailed = [(f"e{b}", r0, f"e{a}") for a, b in base]
    elif pattern == "inverse":
        r0, r1 = f"{relation_prefix}0", f"{relation_prefix}1"
        base = _sample_distinct(rng, n_entities, n_facts, 2, True, "edges")
        train = [(f"e{a}", r0, f"e{b}") for a, b in base]
        entailed = [(f"e{b}", r1, f"e{a}") for a, b in base]
    else:  # composition
        r0, r1, r2 = (f"{relation_prefix}{i}" for i in range(3))
        paths = _sample_distinct(rng, n_entities, n_facts, 3, True, "paths")
        train = [(f"e{a}", r0, f"e{b}") for a, b, _ in paths]
        train += [(f"e{b}", r1, f"e{c}") for _, b, c in paths]
        train = list(dict.fromkeys(train))  # paths may share edges
        # label the whole two-hop closure of the emitted edges, not just
        # the sampled paths: filtered ranking counts every unlabelled
        # closure pair as false
        successors: dict[int, list[int]] = {}
        for _, b, c in paths:
            successors.setdefault(b, []).append(c)
        closure = sorted({(a, c) for a, b, _ in paths
                          for c in successors[b] if a != c})
        entailed = [(f"e{a}", r2, f"e{c}") for a, c in closure]

    kept, valid, test = _split_holdout(entailed, holdout, rng)
    return SynthSplits(train=train + kept, valid=valid, test=test)
