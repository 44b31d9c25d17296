import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lsekg
from lsekg import InputError, cli
from lsekg.cli import (_SAMPLER_KEYS, CONFIG_KEYS, _read_config_file,
                       _resolve_train_config, build_parser, main)
from lsekg.data import build_dataset, detect_patterns, load_split
from lsekg.evaluation import TIE_POLICIES
from lsekg.synth import PATTERNS, generate
from lsekg.models import ModelKind, Parameters
from lsekg.training import (CHECKPOINT_MAGIC, Checkpoint, TrainConfig,
                            load_checkpoint, save_checkpoint,
                            train as train_model)
from test_acceptance import desk_config


class TestSymmetricPattern:
    def test_every_holdout_has_its_reverse_in_train(self):
        splits = generate("symmetric", 30, 120, 0.5, seed=0)
        train = set(splits.train)
        for h, r, t in splits.valid + splits.test:
            assert (t, r, h) in train

    def test_holdout_sizing(self):
        splits = generate("symmetric", 30, 120, 0.5, seed=0)
        held = len(splits.valid) + len(splits.test)
        assert held == 60
        assert len(splits.valid) == 12  # 20 percent of the holdout
        assert len(splits.train) == 180

    def test_no_self_loops_and_no_duplicates(self):
        splits = generate("symmetric", 25, 100, 0.3, seed=2)
        everything = splits.train + splits.valid + splits.test
        assert len(set(everything)) == len(everything)
        assert all(h != t for h, _, t in everything)

    def test_symmetry_score_is_one_on_union(self):
        splits = generate("symmetric", 30, 120, 0.5, seed=1)
        union = splits.train + splits.valid + splits.test
        ds = build_dataset(union)
        stats = detect_patterns(ds.train)
        assert stats[0].symmetry_score == 1.0


class TestInversePattern:
    def test_inverse_detected_on_union(self):
        splits = generate("inverse", 30, 120, 0.5, seed=0)
        union = splits.train + splits.valid + splits.test
        ds = build_dataset(union)
        stats = detect_patterns(ds.train)
        by_name = {ds.vocabulary.id_to_relation[rid]: s
                   for rid, s in stats.items()}
        partners = dict(by_name["r0"].inverse_partners)
        r1 = ds.vocabulary.relation_to_id["r1"]
        assert partners.get(r1) == 1.0

    def test_holdout_entailed_edges_have_base_in_train(self):
        splits = generate("inverse", 30, 120, 0.4, seed=3)
        base = {(h, t) for h, r, t in splits.train if r == "r0"}
        for h, r, t in splits.valid + splits.test:
            assert r == "r1"
            assert (t, h) in base


class TestCompositionPattern:
    def test_composition_closure_present(self):
        splits = generate("composition", 40, 150, 0.5, seed=0)
        union = splits.train + splits.valid + splits.test
        edges = {}
        for h, r, t in union:
            edges.setdefault(r, set()).add((h, t))
        for a, c in edges["r2"]:
            assert any((a, b) in edges["r0"] and (b, c) in edges["r1"]
                       for b in {t for _, t in edges["r0"]})

    def test_every_closure_pair_labelled(self):
        # filtered ranking treats an unlabelled closure pair as false, so
        # r2 must hold the whole two-hop closure of the r0/r1 edges
        splits = generate("composition", 40, 200, 0.5, seed=0)
        union = splits.train + splits.valid + splits.test
        edges = {}
        for h, r, t in union:
            edges.setdefault(r, set()).add((h, t))
        closure = {(a, c) for a, b in edges["r0"] for b2, c in edges["r1"]
                   if b == b2 and a != c}
        assert edges["r2"] == closure

    def test_detected_with_support(self):
        splits = generate("composition", 40, 150, 0.2, seed=1)
        ds = build_dataset(splits.train + splits.valid + splits.test)
        stats = detect_patterns(ds.train)
        by_name = {ds.vocabulary.id_to_relation[rid]: s
                   for rid, s in stats.items()}
        samples = by_name["r2"].composition_samples
        assert samples, "composition relation should be detected"
        r0 = ds.vocabulary.relation_to_id["r0"]
        r1 = ds.vocabulary.relation_to_id["r1"]
        r2 = ds.vocabulary.relation_to_id["r2"]
        assert any(s[:3] == (r0, r1, r2) for s in samples)


class TestMixedPattern:
    def test_relation_names_partition(self):
        splits = generate("mixed", 60, 150, 0.3, seed=0)
        union = splits.train + splits.valid + splits.test
        prefixes = {r.split("_")[0] for _, r, _ in union}
        assert prefixes == {"sym", "inv", "comp"}


class TestGenerateContract:
    def test_deterministic(self):
        a = generate("symmetric", 30, 100, 0.5, seed=7)
        b = generate("symmetric", 30, 100, 0.5, seed=7)
        assert a.train == b.train
        assert a.valid == b.valid
        assert a.test == b.test

    def test_seeds_differ(self):
        a = generate("symmetric", 30, 100, 0.5, seed=7)
        b = generate("symmetric", 30, 100, 0.5, seed=8)
        assert a.train != b.train

    def test_infeasible_request_rejected(self):
        with pytest.raises(InputError):
            generate("symmetric", 5, 1000, 0.5, seed=0)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(InputError):
            generate("starburst", 30, 100, 0.5, seed=0)

    def test_write_round_trips(self, tmp_path):
        splits = generate("symmetric", 30, 100, 0.5, seed=0)
        splits.write(tmp_path)
        assert load_split(tmp_path / "train.txt") == splits.train
        assert load_split(tmp_path / "valid.txt") == splits.valid
        assert load_split(tmp_path / "test.txt") == splits.test


def run_cli(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    # the child process imports the lsekg that these tests import
    full_env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lsekg.__file__)),
         *filter(None, [full_env.get("PYTHONPATH")])])
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "lsekg.cli", *args],
                          capture_output=True, text=True, env=full_env,
                          cwd=cwd)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("synthdata")
    proc = run_cli("synth", "--pattern", "symmetric", "--entities", "30",
                   "--facts", "120", "--holdout", "0.5", "--seed", "0",
                   "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    proc = run_cli("train", "--model", "lse_d", "--data", str(synth_dir),
                   "--profile", "desk", "--max-steps", "200",
                   "--eval-every", "100", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out, proc


class TestCliSynth:
    def test_writes_three_files(self, synth_dir):
        for name in ("train.txt", "valid.txt", "test.txt"):
            assert (synth_dir / name).exists()

    def test_byte_identical_given_seed(self, synth_dir, tmp_path):
        proc = run_cli("synth", "--pattern", "symmetric", "--entities", "30",
                       "--facts", "120", "--holdout", "0.5", "--seed", "0",
                       "--out", str(tmp_path))
        assert proc.returncode == 0
        for name in ("train.txt", "valid.txt", "test.txt"):
            assert ((tmp_path / name).read_bytes()
                    == (synth_dir / name).read_bytes())

    def test_bad_holdout_exit_2(self, tmp_path):
        proc = run_cli("synth", "--pattern", "symmetric", "--entities", "30",
                       "--facts", "120", "--holdout", "1.5", "--seed", "0",
                       "--out", str(tmp_path))
        assert proc.returncode == 2


class TestCliTrain:
    def test_artifacts_written(self, trained_dir):
        out, _ = trained_dir
        assert (out / "lse_d.ckpt").exists()
        assert (out / "train_log.txt").exists()
        assert (out / "metrics.txt").exists()

    def test_banner_reports_parameter_storage(self, trained_dir):
        out, proc = trained_dir
        ckpt = load_checkpoint(out / "lse_d.ckpt")
        n_e, d = ckpt.params.entities.shape
        total = n_e * d + ckpt.params.n_r * d
        assert f"total={total}" in proc.stdout

    def test_checkpoint_loads_and_matches_request(self, trained_dir):
        out, _ = trained_dir
        ckpt = load_checkpoint(out / "lse_d.ckpt")
        assert ckpt.params.kind.value == "lse_d"
        assert ckpt.params.d == 32  # desk profile dimension
        assert ckpt.config.max_steps == 200  # flag beats profile

    def test_missing_data_dir_exit_2(self, tmp_path):
        proc = run_cli("train", "--model", "lse_d",
                       "--data", str(tmp_path / "nope"),
                       "--profile", "desk", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_config_file_between_profile_and_flags(self, synth_dir,
                                                   tmp_path):
        config = tmp_path / "conf.txt"
        config.write_text("max_steps=50\nlearning_rate=0.01\n")
        out = tmp_path / "out"
        proc = run_cli("train", "--model", "transe", "--data",
                       str(synth_dir), "--profile", "desk", "--config",
                       str(config), "--lr", "0.02",
                       "--eval-every", "0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        ckpt = load_checkpoint(out / "transe.ckpt")
        assert ckpt.config.max_steps == 50        # config beats profile
        assert ckpt.config.learning_rate == 0.02  # flag beats config

    def test_split_flag_beats_data(self, synth_dir, tmp_path):
        lines = (synth_dir / "test.txt").read_text().splitlines(
            keepends=True)[:5]
        (tmp_path / "t.txt").write_text("".join(lines))
        proc = run_cli("train", "--model", "lse_d", "--data",
                       str(synth_dir), "--test", str(tmp_path / "t.txt"),
                       "--profile", "desk", "--max-steps", "20",
                       "--eval-every", "0", "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        text = (tmp_path / "out" / "metrics.txt").read_text()
        assert f"n={2 * len(lines)}\n" in text.splitlines(keepends=True)

    def test_output_dir_env_var(self, synth_dir, tmp_path):
        out = tmp_path / "envout"
        proc = run_cli("train", "--model", "lse_d", "--data",
                       str(synth_dir), "--profile", "desk", "--max-steps",
                       "20", "--eval-every", "0",
                       env={"LSEKG_OUT": str(out)})
        assert proc.returncode == 0, proc.stderr
        assert (out / "lse_d.ckpt").exists()


class TestCliEval:
    def test_eval_writes_metrics(self, synth_dir, trained_dir, tmp_path):
        out, _ = trained_dir
        proc = run_cli("eval", "--checkpoint", str(out / "lse_d.ckpt"),
                       "--data", str(synth_dir), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        text = (tmp_path / "metrics.txt").read_text()
        assert "filtered.mrr=" in text

    def test_threads_do_not_change_metrics(self, synth_dir, trained_dir,
                                           tmp_path):
        out, _ = trained_dir
        results = []
        for threads in ("1", "4"):
            dest = tmp_path / threads
            proc = run_cli("eval", "--checkpoint",
                           str(out / "lse_d.ckpt"), "--data",
                           str(synth_dir), "--threads", threads,
                           "--out", str(dest))
            assert proc.returncode == 0, proc.stderr
            results.append((dest / "metrics.txt").read_text())
        assert results[0] == results[1]

    @pytest.mark.parametrize("threads, cores, workers",
                             [(64, 3, 3), (2, 3, 2), (5, None, 1)])
    def test_pool_has_at_most_one_thread_per_core(
            self, monkeypatch, capsys, synth_dir, trained_dir, tmp_path,
            threads, cores, workers):
        out, _ = trained_dir
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        metrics = []
        for n in ("1", str(threads)):
            assert main(["eval", "--checkpoint", str(out / "lse_d.ckpt"),
                         "--data", str(synth_dir), "--threads", n,
                         "--out", str(tmp_path / n)]) == 0
            metrics.append((tmp_path / n / "metrics.txt").read_text())
        assert pools == [1, workers]
        # every shard is still ranked
        assert metrics[0] == metrics[1]

    def test_no_shard_is_empty(self, monkeypatch, capsys, synth_dir,
                               trained_dir, tmp_path):
        out, _ = trained_dir
        calls, cli_evaluate = [], cli.evaluate

        def counting_evaluate(params, triples, *args):
            calls.append(len(triples))
            return cli_evaluate(params, triples, *args)

        monkeypatch.setattr(cli, "evaluate", counting_evaluate)
        metrics = []
        for n in ("1", "1000"):
            calls.clear()
            assert main(["eval", "--checkpoint", str(out / "lse_d.ckpt"),
                         "--data", str(synth_dir), "--threads", n,
                         "--out", str(tmp_path / n)]) == 0
            metrics.append((tmp_path / n / "metrics.txt").read_bytes())
        n_test = len(load_split(synth_dir / "test.txt"))
        assert len(calls) <= n_test and all(calls) and sum(calls) == n_test
        assert metrics[0] == metrics[1]

    def test_test_flag_is_the_test_filter_split(self, synth_dir,
                                                trained_dir, tmp_path):
        out, _ = trained_dir
        ckpt = str(out / "lse_d.ckpt")
        lines = (synth_dir / "test.txt").read_text().splitlines(
            keepends=True)
        test = tmp_path / "t.txt"
        test.write_text("".join(lines[:len(lines) // 2]))
        data, other = tmp_path / "data", tmp_path / "other"
        shutil.copytree(synth_dir, data)
        shutil.copyfile(synth_dir / "test.txt", data / "whole.txt")
        shutil.copytree(synth_dir, other)
        shutil.copyfile(test, other / "test.txt")
        runs = {"flag": ("--data", str(data), "--test", str(test)),
                "dir": ("--data", str(other)),
                "whole": ("--data", str(data), "--test", str(test),
                          "--filter-with", "train,valid,whole")}
        metrics = {}
        for name, flags in runs.items():
            proc = run_cli("eval", "--checkpoint", ckpt, *flags, "--out",
                           str(tmp_path / name))
            assert proc.returncode == 0, proc.stderr
            metrics[name] = (tmp_path / name / "metrics.txt").read_bytes()
        assert metrics["flag"] == metrics["dir"]
        # filtering by the whole test file ranks these triples otherwise
        assert metrics["flag"] != metrics["whole"]

    def test_each_file_read_once(self, synth_dir, trained_dir, tmp_path,
                                 monkeypatch, capsys):
        out, _ = trained_dir
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        lines = (data / "test.txt").read_text().splitlines(keepends=True)
        (data / "test.txt").write_text("".join(lines + lines[:1]))
        calls = []

        def counting_load_split(path):
            calls.append(path)
            return load_split(path)

        monkeypatch.setattr("lsekg.cli.load_split", counting_load_split)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--checkpoint", str(out / "lse_d.ckpt"),
                         "--data", str(data), "--out",
                         str(tmp_path / "eval")]) == 0
        capsys.readouterr()
        assert len(calls) == 3
        assert len([w for w in caught
                    if "duplicate" in str(w.message)]) == 1

    def test_corrupt_checkpoint_exit_3(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"LSEKGE1\n" + b"\x00" * 16)
        proc = run_cli("eval", "--checkpoint", str(bad), "--data",
                       str(synth_dir), "--out", str(tmp_path))
        assert proc.returncode == 3

    def test_missing_checkpoint_exit_2(self, synth_dir, tmp_path):
        proc = run_cli("eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                       "--data", str(synth_dir), "--out", str(tmp_path))
        assert proc.returncode == 2


class TestCliInspect:
    def test_reports_patterns_and_diagnostics(self, synth_dir, trained_dir):
        out, _ = trained_dir
        proc = run_cli("inspect", "--checkpoint", str(out / "lse_d.ckpt"),
                       "--data", str(synth_dir))
        assert proc.returncode == 0, proc.stderr
        assert "symmetry" in proc.stdout
        assert "residual" in proc.stdout

    def test_missing_checkpoint_exit_2(self, synth_dir, tmp_path):
        proc = run_cli("inspect", "--checkpoint",
                       str(tmp_path / "no.ckpt"), "--data", str(synth_dir))
        assert proc.returncode == 2


# one symmetric relation, one inverse pair (bwd's third edge keeps bwd ~ fwd
# below the threshold) and one composition r1 o r2 -> r3 of support 5
INSPECT_TRAIN = (
    [("s0", "sym", "s1"), ("s1", "sym", "s0"), ("s2", "sym", "s3"),
     ("s3", "sym", "s2"), ("u0", "fwd", "v0"), ("u1", "fwd", "v1"),
     ("v0", "bwd", "u0"), ("v1", "bwd", "u1"), ("v2", "bwd", "u2")]
    + [(f"h{i}", "r1", f"m{i}") for i in range(5)]
    + [(f"m{i}", "r2", f"t{i}") for i in range(5)]
    + [(f"h{i}", "r3", f"t{i}") for i in range(5)])

# hand-set relation parameters (d = 2) by relation name, and the pattern
# lines `inspect` prints for them
INSPECT_MODELS = {
    # sym^2 - I = I: 1.0; fwd bwd - I = diag(0, 1): 1/sqrt(2);
    # r1 r2 - r3 = diag(0, -2): sqrt(2) (r2 r1 - r3 would give 1.0)
    ModelKind.LSE: (
        {"sym": [[0, 2], [1, 0]], "fwd": [[2, 0], [0, 2]],
         "bwd": [[0.5, 0], [0, 1]], "r1": [[1, 1], [0, 1]],
         "r2": [[1, 0], [1, 1]], "r3": [[2, 1], [1, 3]]},
        ["symmetric sym (score 1.00): map residual 1.0000",
         "inverse fwd ~ bwd (score 1.00): map residual 0.7071",
         "composition r1 o r2 -> r3 (support 5): map residual 1.4142"]),
    # sym^2 - 1 = (0, 3); fwd bwd - 1 = (0, 1); r1 r2 - r3 = (0, 2)
    ModelKind.LSE_D: (
        {"sym": [1, -2], "fwd": [2, 4], "bwd": [0.5, 0.5], "r1": [2, 3],
         "r2": [1, 2], "r3": [2, 4]},
        ["symmetric sym (score 1.00): map residual 3.0000",
         "inverse fwd ~ bwd (score 1.00): map residual 1.0000",
         "composition r1 o r2 -> r3 (support 5): map residual 2.0000"]),
    # symmetric by construction; bwd - fwd = (0, 0.5); r1 r2 - r3 = (0, 1)
    ModelKind.DISTMULT: (
        {"sym": [1, -2], "fwd": [1, 2], "bwd": [1, 2.5], "r1": [2, 3],
         "r2": [1, 2], "r3": [2, 5]},
        ["symmetric sym (score 1.00): map residual 0.0000",
         "inverse fwd ~ bwd (score 1.00): map residual 0.5000",
         "composition r1 o r2 -> r3 (support 5): map residual 1.0000"]),
    # ||sym|| = 5 over a mean entity norm of 2; fwd + bwd = (0, 1);
    # r1 + r2 - r3 = (0, 2)
    ModelKind.TRANSE: (
        {"sym": [3, 4], "fwd": [1, 0], "bwd": [-1, 1], "r1": [1, 1],
         "r2": [1, 2], "r3": [2, 1]},
        ["symmetric sym (score 1.00): ||r||=5.0000 ratio=2.5000",
         "inverse fwd ~ bwd (score 1.00): ||r1+r2||=1.0000",
         "composition r1 o r2 -> r3 (support 5): ||r1+r2-r3||=2.0000"]),
}


@pytest.mark.parametrize("kind", list(INSPECT_MODELS))
def test_inspect_prints_every_line(kind, tmp_path, capsys):
    vocabulary = build_dataset(INSPECT_TRAIN).vocabulary
    relations, pattern_lines = INSPECT_MODELS[kind]
    table = np.array([relations[name]
                      for name in vocabulary.id_to_relation], float)
    params = Parameters(
        kind=kind, entities=np.tile([0.0, 2.0], (vocabulary.n_e, 1)),
        relations=table)
    save_checkpoint(Checkpoint(vocabulary=vocabulary, params=params,
                               config=TrainConfig(dim=2)),
                    tmp_path / "model.ckpt")
    (tmp_path / "train.txt").write_text(
        "".join("\t".join(triple) + "\n" for triple in INSPECT_TRAIN))
    assert main(["inspect", "--checkpoint", str(tmp_path / "model.ckpt"),
                 "--train", str(tmp_path / "train.txt")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"model={kind.value} d=2 step=0",
        "mean entity norm: 2.0000",
        "relation sym: n=4 tph=1.00 hpt=1.00 symmetry=1.00",
        "relation fwd: n=2 tph=1.00 hpt=1.00 symmetry=0.00",
        "relation bwd: n=3 tph=1.00 hpt=1.00 symmetry=0.00",
        "relation r1: n=5 tph=1.00 hpt=1.00 symmetry=0.00",
        "relation r2: n=5 tph=1.00 hpt=1.00 symmetry=0.00",
        "relation r3: n=5 tph=1.00 hpt=1.00 symmetry=0.00",
    ] + pattern_lines


@pytest.fixture
def empty_model(tmp_path, request):
    """A checkpoint with no entities and no relations, in a directory of
    empty splits."""
    kind = request.param
    params = Parameters(kind, np.zeros((0, 2)),
                        np.zeros((0, 2, 2) if kind.uses_matrix else (0, 2)))
    save_checkpoint(Checkpoint(vocabulary=build_dataset([]).vocabulary,
                               params=params, config=TrainConfig(dim=2)),
                    tmp_path / "model.ckpt")
    for name in ("train", "valid", "test"):
        (tmp_path / f"{name}.txt").write_text("")
    return tmp_path


@pytest.mark.parametrize("empty_model", list(ModelKind), indirect=True)
class TestCliEmptyModel:
    """A model with no entities ranks and inspects nothing, with no
    traceback and no numpy warning."""

    def test_eval_reports_no_queries(self, empty_model, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--checkpoint",
                         str(empty_model / "model.ckpt"), "--data",
                         str(empty_model), "--out",
                         str(empty_model / "out")]) == 0
        assert "no queries" in capsys.readouterr().out
        assert (empty_model / "out" / "metrics.txt").read_text() == (
            "n=0\ntie_policy=mean\n")

    def test_inspect_exits_0(self, empty_model, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inspect", "--checkpoint",
                         str(empty_model / "model.ckpt"), "--data",
                         str(empty_model)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "mean entity norm: nan",
            "no relation patterns detected above thresholds"]


class TestCliDuplicates:
    """`eval` and `inspect` drop a repeated line as `train` does."""

    def test_eval_metrics_equal_train_metrics(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        lines = (data / "test.txt").read_text().splitlines(keepends=True)
        (data / "test.txt").write_text("".join(lines + lines[:1]))
        proc = run_cli("train", "--model", "lse_d", "--data", str(data),
                       "--profile", "desk", "--max-steps", "20",
                       "--eval-every", "0", "--out", str(tmp_path / "train"))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("eval", "--checkpoint",
                       str(tmp_path / "train" / "lse_d.ckpt"), "--data",
                       str(data), "--out", str(tmp_path / "eval"))
        assert proc.returncode == 0, proc.stderr
        assert "dropped 1 duplicate" in proc.stderr
        assert ((tmp_path / "eval" / "metrics.txt").read_bytes()
                == (tmp_path / "train" / "metrics.txt").read_bytes())

    def test_inspect_counts_distinct_triples(self, synth_dir, trained_dir,
                                             tmp_path):
        out, _ = trained_dir
        lines = (synth_dir / "train.txt").read_text().splitlines(
            keepends=True)
        (tmp_path / "train.txt").write_text("".join(lines + lines[:1]))
        relation = lines[0].split("\t")[1]
        n = sum(line.split("\t")[1] == relation for line in lines)
        proc = run_cli("inspect", "--checkpoint", str(out / "lse_d.ckpt"),
                       "--train", str(tmp_path / "train.txt"))
        assert proc.returncode == 0, proc.stderr
        assert f"relation {relation}: n={n} " in proc.stdout


class TestCliExitCodes:
    """Bad input ends with its exit code and a one-line error, never a
    traceback."""

    def exit_code(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        return code

    def train(self, capsys, tmp_path, *flags):
        (tmp_path / "train.txt").write_text("a\tr\tb\n")
        return self.exit_code(capsys, "train", "--model", "lse_d",
                              "--train", str(tmp_path / "train.txt"),
                              "--max-steps", "1", "--out", str(tmp_path),
                              *flags)

    def test_missing_config_file_exit_2(self, capsys, tmp_path):
        assert self.train(capsys, tmp_path, "--config",
                          str(tmp_path / "none.conf")) == 2

    @pytest.mark.parametrize("flag", [("--margin", "-1"),
                                      ("--batch-size", "0"),
                                      ("--negatives", "0"),
                                      ("--max-steps", "-1"),
                                      ("--eval-every", "-2"),
                                      ("--patience", "-1"),
                                      ("--lr", "nan"),
                                      ("--margin", "inf"),
                                      ("--seed", "-1")])
    def test_bad_flag_value_exit_2(self, capsys, tmp_path, flag):
        assert self.train(capsys, tmp_path, *flag) == 2

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_synth_negative_seed_exit_2(self, capsys, tmp_path, pattern):
        assert self.exit_code(capsys, "synth", "--pattern", pattern,
                              "--seed", "-1", "--out", str(tmp_path)) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("line", ["margin=wide", "dim=3.5",
                                      "seed=x", "loss=hinge",
                                      "normalize_entities=ture",
                                      "filter_false_negatives=2"])
    def test_bad_config_value_exit_2(self, capsys, tmp_path, line):
        config = tmp_path / "bad.conf"
        config.write_text(line + "\n")
        assert self.train(capsys, tmp_path, "--config", str(config)) == 2

    def checkpoint(self, tmp_path, meta):
        blob = json.dumps(meta).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob))
                         + blob + bytes(16))
        return str(path)

    @pytest.mark.parametrize("missing", ["kind", "vocabulary", "config",
                                         "step"])
    def test_checkpoint_missing_metadata_key_exit_3(self, capsys, tmp_path,
                                                    missing):
        meta = {"version": 1, "kind": "lse_d", "d": 1, "n_e": 1, "n_r": 1,
                "step": 0, "best_valid_mrr": None, "config": {},
                "vocabulary": {"entities": ["a"], "relations": ["r"]}}
        del meta[missing]
        path = self.checkpoint(tmp_path, meta)
        assert self.exit_code(capsys, "eval", "--checkpoint", path,
                              "--test", path) == 3

    @pytest.mark.parametrize("d", ["3", 2.5, None, -1])
    def test_checkpoint_bad_dimension_exit_3(self, capsys, tmp_path, d):
        meta = {"version": 1, "kind": "lse_d", "d": d, "n_e": 1, "n_r": 1,
                "step": 0, "best_valid_mrr": None, "config": {},
                "vocabulary": {"entities": ["a"], "relations": ["r"]}}
        path = self.checkpoint(tmp_path, meta)
        assert self.exit_code(capsys, "eval", "--checkpoint", path,
                              "--test", path) == 3

    @pytest.mark.parametrize("config", [{"dim": 1, "seed": -1},
                                        {"dim": 1, "sampler": {"seed": -1}}])
    def test_checkpoint_negative_seed_exit_3(self, capsys, tmp_path,
                                             config):
        meta = {"version": 1, "kind": "lse_d", "d": 1, "n_e": 1, "n_r": 1,
                "step": 0, "best_valid_mrr": None, "config": config,
                "vocabulary": {"entities": ["a"], "relations": ["r"]}}
        path = self.checkpoint(tmp_path, meta)
        (tmp_path / "test.txt").write_text("a\tr\ta\n")
        assert self.exit_code(capsys, "eval", "--checkpoint", path,
                              "--test", str(tmp_path / "test.txt"),
                              "--filter-with", "test",
                              "--out", str(tmp_path)) == 3

    def test_checkpoint_metadata_not_an_object_exit_3(self, capsys,
                                                      tmp_path):
        path = self.checkpoint(tmp_path, [1])
        assert self.exit_code(capsys, "eval", "--checkpoint", path,
                              "--test", path) == 3

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_eval_threads_below_one_exit_2(self, capsys, synth_dir,
                                           trained_dir, tmp_path, threads):
        out, _ = trained_dir
        assert self.exit_code(capsys, "eval", "--checkpoint",
                              str(out / "lse_d.ckpt"), "--data",
                              str(synth_dir), "--threads", threads,
                              "--out", str(tmp_path)) == 2

    def test_eval_filter_split_without_data_exit_2(self, capsys, synth_dir,
                                                   trained_dir, tmp_path):
        out, _ = trained_dir
        code = main(["eval", "--checkpoint", str(out / "lse_d.ckpt"),
                     "--test", str(synth_dir / "test.txt"), "--filter-with",
                     "train", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--filter-with train needs --data" in err

    def test_filter_split_is_never_a_flag(self, capsys, synth_dir,
                                          trained_dir, tmp_path):
        # `--filter-with out` names <--data>/out.txt, not the --out dir
        out, _ = trained_dir
        code = main(["eval", "--checkpoint", str(out / "lse_d.ckpt"),
                     "--data", str(synth_dir), "--filter-with", "out",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "out.txt" in err

    @pytest.mark.parametrize("command, flag", [("eval", "--test"),
                                               ("inspect", "--train")])
    def test_triple_outside_checkpoint_vocabulary_exit_3(
            self, capsys, synth_dir, trained_dir, tmp_path, command, flag):
        out, _ = trained_dir
        h, r, t = load_split(synth_dir / "train.txt")[0]
        bad = tmp_path / "bad.txt"
        bad.write_text(f"{h}\t{r}\t{t}\nnowhere\t{r}\t{t}\n")
        extra = ("--data", str(synth_dir), "--out", str(tmp_path)) \
            if command == "eval" else ()
        code = main([command, "--checkpoint", str(out / "lse_d.ckpt"),
                     flag, str(bad), *extra])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nowhere" in err

    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_output_below_a_file_exit_2(self, capsys, synth_dir, trained_dir,
                                        tmp_path, command):
        (tmp_path / "file").write_text("")
        flags = {"synth": ("--pattern", "symmetric"),
                 "train": ("--model", "lse_d", "--data", str(synth_dir),
                           "--max-steps", "1"),
                 "eval": ("--checkpoint", str(trained_dir[0] / "lse_d.ckpt"),
                          "--data", str(synth_dir))}[command]
        code = main([command, *flags, "--out", str(tmp_path / "file" / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_model_larger_than_memory_exit_3(self, capsys, tmp_path):
        # the entity table alone, 2 entities x 2**62 x 8 bytes, is past
        # 2**63 bytes: numpy too refuses it before allocating anything
        (tmp_path / "train.txt").write_text("a\tr\tb\n")
        assert self.exit_code(capsys, "train", "--model", "lse",
                              "--train", str(tmp_path / "train.txt"),
                              "--dim", str(2**62),
                              "--out", str(tmp_path)) == 3

    def test_step_larger_than_memory_exit_3(self, capsys, tmp_path):
        # one positive's 10**10 negatives alone are 224 GiB of int64 ids,
        # which numpy was asked for before the refusal
        assert self.train(capsys, tmp_path, "--negatives", str(10**10)) == 3

    def test_synth_larger_than_memory_exit_3(self, capsys, tmp_path):
        # 2**40 edges of two 8-byte ids each were drawn one at a time
        assert self.exit_code(capsys, "synth", "--pattern", "symmetric",
                              "--entities", str(2**40), "--facts",
                              str(2**40), "--out", str(tmp_path)) == 3

    def test_config_file_closed(self, tmp_path):
        config = tmp_path / "ok.conf"
        config.write_text("dim=4\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _read_config_file(config) == {"dim": "4"}
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


# the values of the exit-code sweep, good and bad. A size is small (at most
# 64) or so large (2**40 and up) that it is refused before anything is
# allocated, and `--max-steps` is at most 3. The `paper` profile is left
# out: its 200-d, 1,024-negative steps are neither small nor refused
_HUGE = str(2**40)
_BAD_NUMBERS = ["x", "2.5", ""]
_VALUES = {
    "dim": (["1", "4", "64"], ["0", "-1", _HUGE, *_BAD_NUMBERS]),
    "negatives": (["1", "8", "64"],
                  ["0", "-3", _HUGE, str(10**10), *_BAD_NUMBERS]),
    "batch_size": (["1", "8", "64", _HUGE], ["0", *_BAD_NUMBERS]),
    "max_steps": (["0", "1", "3"], ["-1", "x"]),
    "eval_every": (["0", "1", "2", _HUGE], ["-2", *_BAD_NUMBERS]),
    "patience": (["0", "1", _HUGE], ["-1", *_BAD_NUMBERS]),
    "seed": (["0", "7", str(2**70)], ["-1", *_BAD_NUMBERS]),
    "learning_rate": (["0.1", "1e-3", "1e308"],
                      ["0", "-1", "nan", "inf", "x"]),
    "margin": (["6", "0.5", "1e308"], ["0", "-1", "nan", "-inf", "x"]),
    "p": (["1", "2"], ["3", "x"]),
    "loss": (["margin", "ce"], ["hinge"]),
    "mode": (["bernoulli", "uniform"], ["x"]),
    "normalize_entities": (["true", "0"], ["maybe"]),
    "filter_false_negatives": (["yes", "false"], ["2"]),
}
_TRAIN_FLAGS = {"dim": "--dim", "negatives": "-k", "batch_size":
                "--batch-size", "eval_every": "--eval-every", "patience":
                "--patience", "seed": "--seed", "learning_rate": "--lr",
                "margin": "--margin", "p": "--p", "loss": "--loss",
                "mode": "--sampling-mode"}


def _flag(good, bad=(), present=10):
    """A flag's value, drawn from 20 chances: one of `bad` on one chance,
    one of `good` on `present` less that one, and else None, the flag left
    out."""
    def pick(chance: int) -> st.SearchStrategy:
        if chance == 0 and bad:
            return st.sampled_from(bad)
        return st.sampled_from(good) if chance < present else st.none()
    return st.integers(0, 19).flatmap(pick)


# lines of a `--config` file: mostly keys with their values, and now and
# then an unknown key or a line that is no key=value at all
_CONFIG_LINES = st.lists(_flag(
    ["# a comment", "", " dim = 4 "], ["dim", "=4", "sampler=1"],
    present=2).flatmap(lambda line: st.just(line) if line is not None
                       else st.sampled_from(sorted(_VALUES)).flatmap(
                           lambda key: _flag(*_VALUES[key], present=20)
                           .map(f"{key}={{}}".format))),
    max_size=3)

_SPLITS = ["miscounted", "empty_field", "not_utf8", "unknown_name",
           "repeated", "lse_d", "missing", "dir"]
_CHECKPOINTS = ["lse", "lse_d", "transe", "distmult", "nan", "inf"]
_BAD_CHECKPOINTS = ["truncated", "wide", "split", "missing", "dir"]
_OUT = _flag(["out", "new_out"], ["below_a_file"], present=19)
_COMMANDS = {
    "train": {
        "--model": _flag([k.value for k in ModelKind], ["x"], present=19),
        "--data": _flag(["data"], ["dir", "missing", "split"], present=19),
        "--train": _flag(["split"], _SPLITS, present=3),
        "--valid": _flag(["split"], _SPLITS, present=3),
        "--test": _flag(["split"], _SPLITS, present=3),
        "--profile": _flag(["desk"], ["x"], present=3),
        "--config": _flag(["config"], ["missing", "dir", "not_utf8"],
                          present=6),
        "--max-steps": _flag(*_VALUES["max_steps"], present=20),
        # True: a flag that takes no value
        "--normalize-entities": _flag([True], present=5),
        "--filter-false-negatives": _flag([True], present=5),
        **{flag: _flag(*_VALUES[key], present=4)
           for key, flag in _TRAIN_FLAGS.items()},
        "--out": _OUT},
    "eval": {
        "--checkpoint": _flag(_CHECKPOINTS, _BAD_CHECKPOINTS, present=19),
        "--data": _flag(["data"], ["dir", "missing"], present=19),
        "--test": _flag(["split"], _SPLITS, present=3),
        "--filter-with": _flag(["train,valid,test", "test", ""],
                               ["train,x"], present=5),
        "--p": _flag(*_VALUES["p"], present=5),
        "--tie-policy": _flag(TIE_POLICIES, ["x"], present=5),
        "--threads": _flag(["1", "2", "64", _HUGE], ["0", "-1", "x"],
                           present=5),
        "--out": _OUT},
    "synth": {
        "--pattern": _flag(PATTERNS, ["x"], present=19),
        "--entities": _flag(["3", "12", "64", _HUGE], ["0", "x"]),
        "--facts": _flag(["1", "12", "64", _HUGE], ["0", "x"]),
        "--holdout": _flag(["0.5", "0.2"], ["0", "1", "nan", "inf", "x"]),
        "--seed": _flag(*_VALUES["seed"]),
        "--out": _OUT},
    "inspect": {
        "--checkpoint": _flag(_CHECKPOINTS, _BAD_CHECKPOINTS, present=19),
        "--data": _flag(["data"], ["dir", "missing"], present=19),
        "--train": _flag(["split"], _SPLITS, present=3)},
}
# flags whose value names a file of `sweep_files`
_PATH_FLAGS = {"--data", "--train", "--valid", "--test", "--config",
               "--out", "--checkpoint"}


@pytest.fixture(scope="module")
def sweep_files(tmp_path_factory):
    """Name -> path of every file and directory the sweep may pass: a tiny
    `mixed` graph, one checkpoint per kind trained on it, and broken,
    missing and unwritable variants."""
    root = tmp_path_factory.mktemp("sweep")
    generate("mixed", 12, 6, 0.5, seed=0).write(root / "data")
    files = {"data": root / "data", "split": root / "data" / "train.txt",
             "missing": root / "missing", "out": root / "out",
             "new_out": root / "new" / "out",
             "below_a_file": root / "file" / "x", "dir": root}
    (root / "file").write_text("")
    train = load_split(files["split"])
    texts = {"miscounted": b"a\tb\n", "empty_field": b"a\t\tb\n",
             "not_utf8": b"\xff\tr\tb\n",
             "unknown_name": "nowhere\t{1}\t{2}\n".format(*train[0])
             .encode(),
             "repeated": files["split"].read_bytes() * 2}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        dataset = build_dataset(train)
    for kind in ModelKind:
        ckpt = train_model(dataset, kind, TrainConfig(
            dim=3, max_steps=2, batch_size=8, eval_every=0))
        files[kind.value] = root / f"{kind.value}.ckpt"
        save_checkpoint(ckpt, files[kind.value])
    # models of NaN and of infinite parameters
    for value in (np.nan, np.inf):
        ckpt.params.entities[:] = value
        ckpt.params.relations[:] = value
        files[str(value)] = root / f"{value}.ckpt"
        save_checkpoint(ckpt, files[str(value)])
    blob = files["lse_d"].read_bytes()
    texts["truncated"] = blob[:len(blob) // 2]
    texts["wide"] = blob.replace(b'"d": 3', f'"d": {_HUGE}'.encode(), 1
                                 ).replace(b'"dim": 3',
                                           f'"dim": {_HUGE}'.encode(), 1)
    for name, text in texts.items():
        files[name] = root / name
        files[name].write_bytes(text)
    files["config"] = root / "sweep.conf"
    return files


class TestCliExitCodeSweep:
    """Argument vectors of the four subcommands, valid or not, exit 0, 2 or
    3; a non-zero exit leaves one `error:` line and no traceback."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.sampled_from(list(_COMMANDS)).flatmap(
        lambda command: st.tuples(
            st.just(command), st.fixed_dictionaries(_COMMANDS[command]))),
        _CONFIG_LINES)
    def test_exits_0_2_or_3(self, sweep_files, command_flags, config_lines):
        command, flags = command_flags
        sweep_files["config"].write_text("".join(
            line + "\n" for line in config_lines))
        argv = [command]
        for flag, value in flags.items():
            if value is not None:
                argv.append(flag)
            if value is not None and value is not True:
                argv.append(str(sweep_files[value]) if flag in _PATH_FLAGS
                            else value)
        out, err = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err), warnings.catch_warnings(),
              mock.patch.dict(os.environ,
                              {cli.OUTPUT_DIR_ENV: str(sweep_files["out"])})):
            # a repeated line or a diverging run warns, as it should
            warnings.simplefilter("ignore", UserWarning)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        err = err.getvalue()
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code:
            assert sum("error:" in line for line in err.splitlines()) == 1


def resolve(*argv):
    return _resolve_train_config(build_parser().parse_args(
        ["train", "--model", "lse", *argv]))


def flat_fields(config) -> dict:
    fields = config.to_dict()
    sampler = fields.pop("sampler")
    return fields | {f"sampler.{name}": v for name, v in sampler.items()}


class TestConfigKeys:
    """Each training key is declared once, as a TrainConfig or SamplerConfig
    field; the config file and the `train` flags both read it there."""

    def test_file_line_and_flag_agree_for_every_field(self, tmp_path):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a.option_strings[0]
                 for a in subparsers.choices["train"]._actions}
        base = flat_fields(resolve("--profile", "paper"))
        set_fields = set()
        for key, (kind, choices) in CONFIG_KEYS.items():
            current = base[f"sampler.{_SAMPLER_KEYS[key]}"
                           if key in _SAMPLER_KEYS else key]
            if kind is bool:
                assert current is False
                text, argv = "true", [flags[key]]
            else:
                value = (next(c for c in choices if c != current) if choices
                         else current + 1 if kind is int else current * 2)
                text, argv = str(value), [flags[key], str(value)]
            conf = tmp_path / f"{key}.conf"
            conf.write_text(f"{key}={text}\n")
            from_file = resolve("--profile", "paper", "--config", str(conf))
            from_flag = resolve("--profile", "paper", *argv)
            assert from_file == from_flag, key
            changed = {name for name, v in flat_fields(from_file).items()
                       if v != base[name]}
            assert changed, key
            set_fields |= changed
        # every field of both dataclasses is set by some key
        assert set_fields == set(base)

    def test_desk_profile_is_the_acceptance_config(self):
        assert resolve("--profile", "desk", "--seed", "9") == desk_config(
            seed=9)
