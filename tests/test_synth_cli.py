import gc
import json
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lsekg
from lsekg import InputError
from lsekg.cli import _read_config_file, main
from lsekg.data import build_dataset, detect_patterns, load_split
from lsekg.synth import generate
from lsekg.training import CHECKPOINT_MAGIC, load_checkpoint


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
    import os
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
        total = n_e * d + ckpt.n_r * d
        assert f"total={total}" in proc.stdout

    def test_checkpoint_loads_and_matches_request(self, trained_dir):
        out, _ = trained_dir
        ckpt = load_checkpoint(out / "lse_d.ckpt")
        assert ckpt.kind.value == "lse_d"
        assert ckpt.d == 32  # desk profile dimension
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


class TestCliExitCodes:
    """Bad input ends with its exit code and a one-line error, never a
    traceback."""

    def exit_code(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ")
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
                                      ("--negatives", "0")])
    def test_bad_flag_value_exit_2(self, capsys, tmp_path, flag):
        assert self.train(capsys, tmp_path, *flag) == 2

    @pytest.mark.parametrize("line", ["margin=wide", "dim=3.5",
                                      "seed=x", "loss=hinge"])
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

    def test_checkpoint_metadata_not_an_object_exit_3(self, capsys,
                                                      tmp_path):
        path = self.checkpoint(tmp_path, [1])
        assert self.exit_code(capsys, "eval", "--checkpoint", path,
                              "--test", path) == 3

    def test_config_file_closed(self, tmp_path):
        config = tmp_path / "ok.conf"
        config.write_text("dim=4\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _read_config_file(config) == {"dim": "4"}
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
