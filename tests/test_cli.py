import argparse
import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from moediv import analysis, cli
from moediv import model as model_mod
from moediv.data import SynthDomainSpec, synth_corpus
from moediv.model import ModelConfig, MoEModel, save_checkpoint
from moediv.trainer import AdamWState, TrainConfig


def write_corpus(path, seed=0, num_docs=2, doc_len=400, domains=("a", "b", "c")):
    specs = [
        SynthDomainSpec(d, "abcdefgh", num_docs, doc_len, bigram_gain=1.0)
        for d in domains
    ]
    docs, _ = synth_corpus(specs, seed=seed)
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            rec = {"text": bytes(doc.tokens).decode("utf-8"), "domain": doc.domain}
            f.write(json.dumps(rec) + "\n")
    return path


def write_config(path):
    path.write_text(
        "# tiny run\n"
        "num_layers = 1\n"
        "hidden_size = 16\n"
        "intermediate_size = 24\n"
        "num_experts = 4\n"
        "top_k = 2\n"
        "num_heads = 2\n"
        "vocab_size = 128\n"
        "max_seq_len = 16\n"
        "total_steps = 6\n"
        "warmup_steps = 2\n"
        "checkpoint_interval = 3\n"
        "seq_len = 12\n"
        "batch_size = 4\n"
    )
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny trained run shared by the read-only analysis commands."""
    root = tmp_path_factory.mktemp("run")
    corpus = write_corpus(root / "corpus.jsonl")
    config = write_config(root / "config.ini")
    out = root / "out"
    rc = cli.run(["train", "--config", str(config), "--data", str(corpus),
                  "--out", str(out), "--seed", "3"])
    assert rc == 0
    return {"corpus": corpus, "config": config, "out": out,
            "ckpt": out / "final.moediv"}


class TestParseConfig:
    def test_empty_defaults(self):
        mc, tc, dc = cli.parse_config(None)
        assert mc.num_experts == 8 and tc.alpha == 1e-3
        assert dataclasses.asdict(dc) == {"seq_len": 64, "batch_size": 8, "val_sequences": 100}

    def test_roundtrip(self, tmp_path):
        p = write_config(tmp_path / "c.ini")
        mc, tc, dc = cli.parse_config(p)
        assert mc.num_layers == 1 and mc.num_experts == 4
        assert tc.total_steps == 6 and tc.warmup_steps == 2
        assert dc.seq_len == 12 and dc.batch_size == 4

    def test_comments_and_floats(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("alpha = 0.01  # stronger balance\nbeta = 0\n")
        _, tc, _ = cli.parse_config(p)
        assert tc.alpha == 0.01 and tc.beta == 0.0

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("bogus = 1\n")
        with pytest.raises(cli.UsageError, match="bogus"):
            cli.parse_config(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("just words\n")
        with pytest.raises(cli.UsageError, match=":1:"):
            cli.parse_config(p)

    def test_missing_file(self):
        with pytest.raises(cli.UsageError):
            cli.parse_config("/nonexistent/config")

    def test_every_key_parses_to_its_default_type(self, tmp_path):
        defaults = {**dataclasses.asdict(ModelConfig()), **dataclasses.asdict(TrainConfig()),
                    "seq_len": 64, "batch_size": 8, "val_sequences": 100}
        p = tmp_path / "c.ini"
        p.write_text("".join(f"{k} = {v}\n" for k, v in defaults.items()))
        mc, tc, dc = cli.parse_config(p)
        parsed = {**dataclasses.asdict(mc), **dataclasses.asdict(tc), **dataclasses.asdict(dc)}
        assert parsed.keys() == defaults.keys()
        for key, value in defaults.items():
            assert type(parsed[key]) is type(value) and parsed[key] == value, key

    def test_wrong_type_is_usage_error(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("total_steps = 1.5\n")
        with pytest.raises(cli.UsageError, match="'total_steps' expects int"):
            cli.parse_config(p)


# how a checkpoint is spoiled -> the reason load_checkpoint gives after its path
REFUSED_CHECKPOINTS = {
    "bad magic": "not a moediv checkpoint (bad magic)",
    "unparsable header": "bad header: Expecting",
    "parameter layout": "parameter names and shapes do not match the config",
    "bad step": "bad header: step must be a non-negative int, got -1",
    "truncated": "truncated: expected",
    "trailing bytes": "3 trailing bytes",
    "non-finite weight": "non-finite value in weights layers.0.moe.experts",
    "negative v": "negative value in v layers.0.attn.wq",
}


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        rc = cli.run(["train", "--data", str(tmp_path / "nope.jsonl"),
                      "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_missing_required_flag(self):
        assert cli.run(["train", "--out", "/tmp/x"]) == 1

    def test_unknown_verb(self):
        assert cli.run(["frobnicate"]) == 1

    def test_runtime_failure_is_2(self, trained, tmp_path):
        # a finite checkpoint whose perplexity overflows np.exp: perturb must
        # fail, not print NaN deltas; run where the overflow only warns
        model, state = model_mod.load_checkpoint(trained["ckpt"])
        model.params["lm_head"].data[...] *= 1e5
        ckpt = tmp_path / "big.moediv"
        save_checkpoint(ckpt, model, state)
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "moediv.cli", "perturb", "--ckpt", str(ckpt),
                               "--layer", "0", "--data", str(trained["corpus"])],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert "error: domain a: mean delta-PPL is not finite (nan)" in done.stderr

    @pytest.mark.parametrize("case", list(REFUSED_CHECKPOINTS))
    @pytest.mark.parametrize("verb", ["decompose", "train --resume"])
    def test_refused_checkpoint_is_usage_error(self, trained, tmp_path, capsys, verb, case):
        ckpt = tmp_path / "bad.moediv"
        if case in ("non-finite weight", "negative v"):
            model, state = model_mod.load_checkpoint(trained["ckpt"])
            if case == "negative v":
                model.split(state.v)["layers.0.attn.wq"][1, 2] = -1.0
            else:
                model.params["layers.0.moe.experts"].data[1, 2, 3, 4] = np.nan
            save_checkpoint(ckpt, model, state)
        else:
            magic, header, blob = trained["ckpt"].read_bytes().split(b"\n", 2)
            header = json.loads(header)
            if case == "parameter layout":
                header["params"][-1][1] = header["params"][-1][1][::-1]  # lm_head transposed
            if case == "bad step":
                header["step"] = -1
            header = b"{" if case == "unparsable header" else json.dumps(header).encode()
            blob = {"truncated": blob[:-8], "trailing bytes": blob + b"\0" * 3}.get(case, blob)
            magic = b"NOTMOEDIV" if case == "bad magic" else magic
            ckpt.write_bytes(magic + b"\n" + header + b"\n" + blob)
        out = tmp_path / "out"
        if verb == "decompose":
            argv = ["decompose", "--ckpt", str(ckpt)]
        else:
            argv = ["train", "--config", str(trained["config"]), "--out", str(out),
                    "--resume", str(ckpt)]
        assert cli.run(argv + ["--data", str(trained["corpus"])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {ckpt}: {REFUSED_CHECKPOINTS[case]}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("step", -4), ("step", "2"), ("step", None), ("step", 2.5), ("step", True),
    ], ids=["step-negative", "step-str", "step-null", "step-float", "step-bool"])
    def test_resume_bad_header_count_refused(self, trained, tmp_path, capsys, field, value):
        # refused as the other checkpoint faults are, before --out is made
        magic, header, blob = trained["ckpt"].read_bytes().split(b"\n", 2)
        header = json.loads(header)
        header[field] = value
        ckpt = tmp_path / "bad.moediv"
        ckpt.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + blob)
        out = tmp_path / "out"
        rc = cli.run(["train", "--config", str(trained["config"]), "--data",
                      str(trained["corpus"]), "--out", str(out), "--resume", str(ckpt)])
        assert rc == 1
        assert (f"error: {ckpt}: bad header: {field} must be a non-negative int, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_resume_past_total_steps_refused(self, trained, tmp_path, capsys):
        # the 6-step run's final checkpoint is at step 6; a 4-step config
        # would write a final.moediv at step 4 holding step-6 weights
        short = tmp_path / "short.ini"
        short.write_text(trained["config"].read_text().replace("total_steps = 6",
                                                               "total_steps = 4"))
        out = tmp_path / "out"
        rc = cli.run(["train", "--config", str(short), "--data", str(trained["corpus"]),
                      "--out", str(out), "--resume", str(trained["ckpt"])])
        assert rc == 1
        assert ("error: --resume: the checkpoint is at step 6, past the run's total_steps = 4"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_resume_without_optimizer_state_refused(self, trained, tmp_path, capsys):
        # a weights-only file, in the form that once marked one with
        # "has_opt": false: resuming it would go on with the lr schedule and
        # batch order at its step while AdamW restarted from zero moments
        magic, header, blob = (trained["out"] / "checkpoint.moediv").read_bytes().split(b"\n", 2)
        header = json.loads(header)
        header.update(has_opt=False, opt_t=0)
        ckpt = tmp_path / "weights.moediv"
        ckpt.write_bytes(magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n"
                         + blob[:len(blob) // 3])
        out = tmp_path / "out"
        rc = cli.run(["train", "--config", str(trained["config"]), "--data",
                      str(trained["corpus"]), "--out", str(out), "--resume", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt}: truncated" in err and "(weights and Adam moments)" in err
        assert not out.exists()

    def test_layer_out_of_range_is_usage_error(self, trained, capsys):
        rc = cli.run(["perturb", "--ckpt", str(trained["ckpt"]),
                      "--layer", "9", "--data", str(trained["corpus"])])
        assert rc == 1
        assert "--layer 9 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["decompose", "perturb", "heatmap"])
    def test_domain_shorter_than_a_sequence_is_usage_error(self, trained, tmp_path, capsys,
                                                           verb):
        # two 10-byte domains: neither fills one sequence of max_seq_len = 16
        corpus = tmp_path / "corpus.jsonl"
        text = trained["corpus"].read_text()
        for dom in ("e", "d"):
            text += json.dumps({"text": "abcdefghab", "domain": dom}) + "\n"
        corpus.write_text(text)
        extra = ["--layer", "0"] if verb == "perturb" else []
        rc = cli.run([verb, "--ckpt", str(trained["ckpt"]), "--data", str(corpus), *extra])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert ("error: --data: shorter than one sequence of 16 tokens: domain d, e"
                in captured.err)

    @pytest.mark.parametrize("verb", ["decompose", "perturb", "heatmap", "heatmap --inverse",
                                      "ternary"])
    def test_data_without_records_is_usage_error(self, trained, tmp_path, capsys, verb):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("\n")
        extra = ["--layer", "0"] if verb == "perturb" else []
        rc = cli.run([*verb.split(), "--ckpt", str(trained["ckpt"]), "--data", str(corpus),
                      *extra])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error: --data: no records" in captured.err

    def test_refuses_nonempty_out(self, trained, tmp_path):
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "stale").write_text("x")
        rc = cli.run(["train", "--config", str(trained["config"]),
                      "--data", str(trained["corpus"]), "--out", str(out)])
        assert rc == 1
        rc = cli.run(["train", "--config", str(trained["config"]),
                      "--data", str(trained["corpus"]), "--out", str(out), "--force"])
        assert rc == 0


    @pytest.mark.parametrize("verb, flag, value", [
        ("decompose", "--limit", "0"),
        ("decompose", "--limit", "-1"),
        ("heatmap", "--limit", "0"),
        ("ternary", "--limit", "0"),
        ("perturb", "--limit", "0"),
        ("perturb", "--draws", "0"),
        ("perturb", "--draws", "-2"),
    ])
    def test_count_below_one_is_usage_error(self, trained, capsys, verb, flag, value):
        extra = ["--layer", "0"] if verb == "perturb" else []
        rc = cli.run([verb, "--ckpt", str(trained["ckpt"]), "--data", str(trained["corpus"]),
                      *extra, flag, value])
        assert rc == 1
        assert f"argument {flag}: expected an integer >= 1, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["train --seed", "perturb --seed", "config seed"])
    def test_negative_seed_is_usage_error(self, trained, tmp_path, capsys, case):
        out = tmp_path / "out"
        if case == "perturb --seed":
            argv = ["perturb", "--ckpt", str(trained["ckpt"]), "--layer", "0",
                    "--data", str(trained["corpus"]), "--seed", "-1"]
            expected = "argument --seed: expected an integer >= 0, got '-1'"
        else:
            argv = ["train", "--data", str(trained["corpus"]), "--out", str(out)]
            if case == "train --seed":
                argv += ["--seed", "-1"]
                expected = "argument --seed: expected an integer >= 0, got '-1'"
            else:
                config = tmp_path / "c.ini"
                config.write_text("seed = -1\n")
                argv += ["--config", str(config)]
                expected = f"{config}: seed must be nonnegative, got -1"
        assert cli.run(argv) == 1
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("top_k = 9", "top_k must not exceed num_experts"),
        ("hidden_size = 65", "hidden_size must be divisible by num_heads"),
        ("warmup_steps = 2001", "warmup_steps must not exceed total_steps"),
        ("seq_len = 0", "seq_len must be at least 2, got 0"),
        ("seq_len = 1", "seq_len must be at least 2, got 1"),
        ("batch_size = 0", "batch_size must be at least 1, got 0"),
        ("val_sequences = -5", "val_sequences must be at least 1, got -5"),
        ("num_heads = 0", "num_heads must be at least 1, got 0"),
        ("num_layers = 0", "num_layers must be at least 1, got 0"),
        ("top_k = 0", "top_k must be at least 1, got 0"),
        ("checkpoint_interval = 0", "checkpoint_interval must be at least 1, got 0"),
        ("lr = nan", "lr must be finite, got nan"),
        ("weight_decay = nan", "weight_decay must be finite, got nan"),
        ("eps = nan", "eps must be finite, got nan"),
        ("alpha = nan", "alpha must be finite, got nan"),
        ("beta = inf", "beta must be finite, got inf"),
        ("lr = inf", "lr must be finite, got inf"),
        ("grad_clip = nan", "grad_clip must be finite, got nan"),
        ("grad_clip = -1", "grad_clip must be nonnegative, got -1.0"),
        ("adam_beta1 = 1.0", "adam_beta1 must be in [0, 1), got 1.0"),
        ("adam_beta2 = 1.0", "adam_beta2 must be in [0, 1), got 1.0"),
        ("adam_beta1 = -0.5", "adam_beta1 must be in [0, 1), got -0.5"),
        ("total_steps = -5", "total_steps must be nonnegative, got -5"),
        ("warmup_steps = -10", "warmup_steps must be nonnegative, got -10"),
        ("lr = -0.01", "lr must be nonnegative, got -0.01"),
        ("weight_decay = -0.1", "weight_decay must be nonnegative, got -0.1"),
        ("eps = -1", "eps must be positive, got -1.0"),
        ("eps = 0", "eps must be positive, got 0.0"),
    ])
    def test_invalid_config_is_usage_error(self, trained, tmp_path, capsys, line, message):
        config = tmp_path / "c.ini"
        config.write_text(line + "\n")
        out = tmp_path / "out"
        rc = cli.run(["train", "--config", str(config), "--data", str(trained["corpus"]),
                      "--out", str(out)])
        assert rc == 1
        assert f"error: {config}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_config_key_is_usage_error(self, trained, tmp_path, capsys):
        config = tmp_path / "c.ini"
        config.write_text("seq_len = 64\n# a later line must not win\nseq_len = 32\n")
        out = tmp_path / "out"
        rc = cli.run(["train", "--config", str(config), "--data", str(trained["corpus"]),
                      "--out", str(out)])
        assert rc == 1
        assert f"error: {config}:3: 'seq_len' is already set on line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        pytest.param("", "corpus shorter than one packed sequence", id="empty"),
        # 100 bytes: one sequence of the default seq_len 64
        pytest.param(json.dumps({"text": "ab" * 50, "domain": "a"}) + "\n",
                     "corpus yields 1 sequences, fewer than batch_size=8", id="one sequence"),
    ])
    def test_corpus_smaller_than_a_batch_is_usage_error(self, tmp_path, capsys, text, message):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(text)
        out = tmp_path / "out"
        assert cli.run(["train", "--data", str(corpus), "--out", str(out)]) == 1
        assert f"error: --data: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb, flag", [
        ("train", "--config"), ("train", "--data"), ("train", "--resume"),
        ("decompose", "--ckpt"), ("decompose", "--data"),
    ])
    def test_directory_is_not_a_file(self, trained, tmp_path, capsys, verb, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "out"
        if verb == "train":
            given = {"--config": trained["config"], "--data": trained["corpus"], "--out": out}
        else:
            given = {"--ckpt": trained["ckpt"], "--data": trained["corpus"]}
        given[flag] = folder
        argv = [verb] + [str(a) for pair in given.items() for a in pair]
        assert cli.run(argv) == 1
        assert f"error: {flag}: no such file: {folder}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["train", "decompose"])
    def test_malformed_data_is_usage_error(self, trained, tmp_path, capsys, verb):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"text": "abc", "domain": "a"}\nnot json\n')
        out = tmp_path / "out"
        if verb == "train":
            argv = ["train", "--data", str(corpus), "--out", str(out)]
        else:
            argv = ["decompose", "--ckpt", str(trained["ckpt"]), "--data", str(corpus)]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {corpus}:2: malformed record: " in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["train", "heatmap"])
    def test_non_string_field_is_usage_error(self, trained, tmp_path, capsys, verb):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"text": "abc", "domain": "a"}\n{"text": 123, "domain": null}\n')
        out = tmp_path / "out"
        if verb == "train":
            argv = ["train", "--data", str(corpus), "--out", str(out)]
        else:
            argv = ["heatmap", "--ckpt", str(trained["ckpt"]), "--data", str(corpus)]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {corpus}:2: 'text' must be a string, got 123" in captured.err
        assert not out.exists()

    def test_out_is_a_file_is_usage_error(self, trained, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.write_text("x")
        # refused before the corpus is read
        monkeypatch.setattr(cli.data_mod, "load_corpus", None)
        rc = cli.run(["train", "--config", str(trained["config"]),
                      "--data", str(trained["corpus"]), "--out", str(out), "--force"])
        assert rc == 1
        assert f"error: --out: {out} exists and is not a directory" in capsys.readouterr().err
        assert out.read_text() == "x"

    @pytest.mark.parametrize("verb", ["decompose", "perturb", "heatmap", "ternary"])
    def test_missing_data_refused_before_checkpoint_is_read(self, trained, tmp_path, capsys,
                                                            monkeypatch, verb):
        def load_checkpoint(path):
            raise AssertionError("checkpoint read before --data was checked")

        monkeypatch.setattr(cli, "load_checkpoint", load_checkpoint)
        missing = tmp_path / "missing.jsonl"
        argv = [verb, "--ckpt", str(trained["ckpt"]), "--data", str(missing)]
        assert cli.run(argv + (["--layer", "0"] if verb == "perturb" else [])) == 1
        assert f"error: --data: no such file: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["train", "train --resume", "decompose"])
    def test_byte_outside_vocabulary_is_usage_error(self, trained, tmp_path, capsys, verb):
        # "é" is the bytes 0xC3 0xA9, outside the checkpoint's and the config's vocab_size 128
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(trained["corpus"].read_text()
                          + json.dumps({"text": "caf\u00e9" * 20, "domain": "b"}) + "\n")
        out = tmp_path / "out"
        if verb == "decompose":
            argv = ["decompose", "--ckpt", str(trained["ckpt"])]
        else:
            argv = ["train", "--config", str(trained["config"]), "--out", str(out)]
            argv += ["--resume", str(trained["ckpt"])] if verb != "train" else []
        assert cli.run(argv + ["--data", str(corpus)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: --data: domain b has byte 195, outside the model's vocab_size 128"
                in captured.err)
        assert not out.exists()

    def test_seq_len_above_config_max_is_usage_error(self, trained, tmp_path, capsys):
        # the one seq_len bound, against the model the config makes
        config = tmp_path / "c.ini"
        config.write_text("seq_len = 200\n")
        out = tmp_path / "out"
        rc = cli.run(["train", "--config", str(config), "--data", str(trained["corpus"]),
                      "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: seq_len = 200 exceeds the model's max_seq_len = 128" in err
        assert not out.exists()

    def test_resume_seq_len_above_checkpoint_max_is_usage_error(self, trained, tmp_path, capsys):
        # the config's own max_seq_len admits seq_len 64; the checkpoint's 16 does not
        config = tmp_path / "c.ini"
        config.write_text(trained["config"].read_text().replace("seq_len = 12", "seq_len = 64")
                          .replace("max_seq_len = 16", "max_seq_len = 128"))
        out = tmp_path / "out"
        rc = cli.run(["train", "--config", str(config), "--data", str(trained["corpus"]),
                      "--out", str(out), "--resume", str(trained["ckpt"])])
        assert rc == 1
        assert "error: seq_len = 64 exceeds the model's max_seq_len = 16" in capsys.readouterr().err
        assert not out.exists()

    def test_perturb_one_expert_is_usage_error(self, trained, tmp_path, capsys, monkeypatch):
        def delta_ppl_mean(*args, **kwargs):
            raise AssertionError("a forward ran before the expert count was checked")

        monkeypatch.setattr(cli.analysis, "delta_ppl_mean", delta_ppl_mean)
        ckpt = tmp_path / "one.moediv"
        config = ModelConfig(num_layers=1, hidden_size=16, intermediate_size=24, num_experts=1,
                             top_k=1, num_heads=2, vocab_size=128, max_seq_len=16)
        model = MoEModel(config)
        save_checkpoint(ckpt, model, AdamWState.init(model.flat))
        rc = cli.run(["perturb", "--ckpt", str(ckpt), "--layer", "0",
                      "--data", str(trained["corpus"])])
        assert rc == 1
        assert ("error: --ckpt: the model has 1 expert(s), fewer than the 2 this verb needs"
                in capsys.readouterr().err)


class TestTrainOutputs:
    def test_artifacts(self, trained):
        out = trained["out"]
        assert (out / "final.moediv").exists()
        assert (out / "checkpoint.moediv").exists()
        assert (out / "config.txt").exists()
        lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert [l["step"] for l in lines] == list(range(6))
        assert all(np.isfinite(l["l_final"]) for l in lines)

    def test_config_echo(self, trained):
        text = (trained["out"] / "config.txt").read_text()
        assert "num_experts = 4" in text
        assert "seed = 3" in text


class TestAnalysisCommands:
    def test_decompose(self, trained, capsys):
        rc = cli.run(["decompose", "--ckpt", str(trained["ckpt"]),
                      "--data", str(trained["corpus"])])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "layer,d_total,d_inter,d_intra"
        vals = [float(v) for v in lines[1].split(",")[1:]]
        assert abs(vals[0] - vals[1] - vals[2]) <= 1e-10

    def test_perturb(self, trained, capsys):
        rc = cli.run(["perturb", "--ckpt", str(trained["ckpt"]), "--layer", "0",
                      "--data", str(trained["corpus"]), "--draws", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        records = [json.loads(l) for l in lines]
        summary = records[-1]
        assert set(summary["mean_delta"]) == {"a", "b", "c"}
        # 2 draws x 3 domains + summary
        assert len(records) == 7

    def test_perturb_prints_delta_ppl_records(self, trained, capsys):
        rc = cli.run(["perturb", "--ckpt", str(trained["ckpt"]), "--layer", "0",
                      "--data", str(trained["corpus"]), "--seed", "4", "--limit", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        model, valsets = cli._model_and_valsets(argparse.Namespace(
            ckpt=str(trained["ckpt"]), data=str(trained["corpus"]), limit=2))
        result = analysis.delta_ppl_mean(model, 0, valsets, seed=4)
        expected = [json.dumps(rec, sort_keys=True) for recs in result["draws"] for rec in recs]
        expected.append(json.dumps({"layer": 0, "mean_delta": result["mean_delta"]},
                                   sort_keys=True))
        assert out == "\n".join(expected) + "\n"

    def test_heatmap(self, trained, capsys):
        rc = cli.run(["heatmap", "--ckpt", str(trained["ckpt"]),
                      "--data", str(trained["corpus"])])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# layer 0")
        header = out.split("\n")[1]
        assert header == "row," + ",".join(f"expert_{i}" for i in range(4))
        for line in out.strip().split("\n")[2:5]:
            vals = [float(v) for v in line.split(",")[1:]]
            assert sum(vals) == pytest.approx(1.0, abs=1e-9)

    def test_heatmap_inverse(self, trained, capsys):
        rc = cli.run(["heatmap", "--ckpt", str(trained["ckpt"]),
                      "--data", str(trained["corpus"]), "--inverse"])
        assert rc == 0
        header = capsys.readouterr().out.split("\n")[1]
        assert header == "row,a,b,c"

    def test_heatmap_inverse_flags_never_selected(self, tmp_path, capsys):
        # the dead-expert recipe of test_analysis: a large ln2 bias on
        # coordinate 0 and expert 3's router row pointing against it keep
        # expert 3 out of every top-2 set
        model = MoEModel(ModelConfig(num_layers=1, hidden_size=16, intermediate_size=24,
                                     num_experts=4, top_k=2, num_heads=2, vocab_size=128,
                                     max_seq_len=16), seed=3)
        model.params["layers.0.ln2.b"].data[0] = 100.0
        model.params["layers.0.moe.router"].data[3] = 0.0
        model.params["layers.0.moe.router"].data[3, 0] = -1.0
        ckpt = tmp_path / "dead.moediv"
        save_checkpoint(ckpt, model, AdamWState.init(model.flat))
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        assert cli.run(["heatmap", "--ckpt", str(ckpt), "--data", str(corpus)]) == 0
        assert capsys.readouterr().out.count("#") == 1  # only "# layer 0"
        assert cli.run(["heatmap", "--ckpt", str(ckpt), "--data", str(corpus), "--inverse"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        # "# layer 0", the header, one row per expert, then the flag line
        assert len(lines) == 1 + 1 + 4 + 1
        prefix = "# never selected: "
        assert lines[-1].startswith(prefix)
        flagged = lines[-1][len(prefix):].split(",")
        assert "expert_3" in flagged
        rows = {l.split(",")[0]: [float(v) for v in l.split(",")[1:]] for l in lines[2:6]}
        for name in flagged:
            assert rows[name] == pytest.approx([1 / 3] * 3, abs=1e-9)

    def test_ternary(self, trained, capsys):
        rc = cli.run(["ternary", "--ckpt", str(trained["ckpt"]),
                      "--data", str(trained["corpus"])])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1].startswith("expert,x,y,")
        row = lines[2].split(",")
        x, y = float(row[1]), float(row[2])
        assert 0.0 - 1e-9 <= x <= 1.0 + 1e-9
        assert -1e-9 <= y <= np.sqrt(3) / 2 + 1e-9

    def test_ternary_needs_three_domains(self, trained, tmp_path, capsys):
        corpus2 = write_corpus(tmp_path / "two.jsonl", domains=("a", "b"))
        rc = cli.run(["ternary", "--ckpt", str(trained["ckpt"]),
                      "--data", str(corpus2)])
        assert rc == 1
        assert "error: --data: ternary needs exactly 3 domains, got 2" in capsys.readouterr().err

    def test_resume_from_checkpoint(self, trained, tmp_path):
        # a 3-step run leaves its checkpoint at step 3; resuming it under
        # the 6-step config trains steps 3..5
        short_cfg = tmp_path / "short.ini"
        short_cfg.write_text(
            trained["config"].read_text().replace("total_steps = 6", "total_steps = 3")
        )
        out1 = tmp_path / "short"
        rc = cli.run(["train", "--config", str(short_cfg),
                      "--data", str(trained["corpus"]), "--out", str(out1),
                      "--seed", "3"])
        assert rc == 0
        out2 = tmp_path / "resumed"
        rc = cli.run(["train", "--config", str(trained["config"]),
                      "--data", str(trained["corpus"]), "--out", str(out2),
                      "--seed", "3", "--resume", str(out1 / "checkpoint.moediv")])
        assert rc == 0
        lines = [json.loads(l) for l in (out2 / "metrics.jsonl").read_text().splitlines()]
        assert [l["step"] for l in lines] == [3, 4, 5]


class TestVerbForwardCounts:
    """Each verb runs each domain from the embeddings once, whatever the
    layers; perturb resumes every other forward from that run's prefix."""

    @pytest.fixture
    def three_layer(self, tmp_path):
        config = ModelConfig(num_layers=3, hidden_size=16, intermediate_size=24,
                             num_experts=4, top_k=2, num_heads=2, vocab_size=128,
                             max_seq_len=16)
        ckpt = tmp_path / "m.moediv"
        model = MoEModel(config, seed=0)
        save_checkpoint(ckpt, model, AdamWState.init(model.flat))
        return ckpt, write_corpus(tmp_path / "corpus.jsonl")

    @pytest.mark.parametrize("verb, expected", [
        (["decompose"], 3),
        (["heatmap"], 3),
        (["heatmap", "--inverse"], 3),
        (["ternary"], 3),
        # a prefix and (draws + 1) resumed forwards per domain
        (["perturb", "--layer", "1", "--draws", "2"], 12),
    ])
    def test_forward_calls(self, three_layer, monkeypatch, capsys, verb, expected):
        calls = []
        original = model_mod.forward

        def counted(*args, start=None, **kwargs):
            calls.append(start is None)
            return original(*args, start=start, **kwargs)

        monkeypatch.setattr(model_mod, "forward", counted)
        monkeypatch.setattr(analysis, "forward", counted)
        ckpt, corpus = three_layer
        rc = cli.run([verb[0], "--ckpt", str(ckpt), "--data", str(corpus), *verb[1:]])
        assert rc == 0, capsys.readouterr().err
        assert sum(calls) == 3
        assert len(calls) == expected


def test_pinned_hashes_tool_exits_0():
    # every line of tools/pinned_hashes.txt: the corpus, two training runs,
    # each analysis verb's stdout and moediv check's, at one BLAS thread
    root = pathlib.Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "tools" / "pinned_hashes.py")],
                          capture_output=True, timeout=600)
    assert done.returncode == 0, (done.stdout + done.stderr).decode()


def test_pinned_hashes_tool_compares_both_ways(monkeypatch):
    # a produced line that is not pinned fails, and so does a pinned output
    # that produced no line, such as a dropped VERBS entry
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("pinned_hashes",
                                                  root / "tools" / "pinned_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)  # the import sets it
    spec.loader.exec_module(tool)
    pinned = ["corpus 1", "decompose 2", "check 3"]
    tool.compare(["corpus 1", "decompose 2", "check 3"], pinned)
    for lines, message in [
        (["corpus 1", "decompose 9", "check 3"], "differs from pinned_hashes.txt: decompose$"),
        (["corpus 1", "check 3"], "pinned in pinned_hashes.txt but not produced: decompose$"),
        (["corpus 1", "check 3", "ternary 4"], "differs from pinned_hashes.txt: ternary; pinned "
                                               "in pinned_hashes.txt but not produced: decompose"),
        (["corpus 1"], "differs from pinned_hashes.txt: corpus$"),
    ]:
        with pytest.raises(SystemExit, match=message) as exc:
            tool.compare(lines, pinned if len(lines) > 1 else [])
        assert exc.value.code != 0
