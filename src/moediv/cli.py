"""Command-line entry point.

Verbs: train, decompose, perturb, heatmap, ternary, check. Exit codes:
0 success, 1 usage error (bad flags, missing files), 2 runtime failure.
Verbosity via the MOEDIV_LOG environment variable (error | info | debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import analysis, checks, data as data_mod, trainer as trainer_mod
from .data import DataConfig
from .model import ModelConfig, MoEModel, load_checkpoint
from .trainer import AdamWState, TrainConfig

log = logging.getLogger("moediv")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


# the config file's keys: the fields of these classes, typed by their defaults
_CONFIGS = (ModelConfig, TrainConfig, DataConfig)


def parse_config(path=None):
    """Read key = value lines into (ModelConfig, TrainConfig, DataConfig).

    Every key has a default, so an empty or missing config is valid. The
    classes refuse their own bad values; ``seq_len`` is checked here
    because its bound is the model's ``max_seq_len``.
    """
    kws = {cls: {} for cls in _CONFIGS}
    defaults = {cls: dataclasses.asdict(cls()) for cls in _CONFIGS}
    if path is not None:
        if not os.path.isfile(path):
            raise UsageError(f"--config: no such file: {path}")
        with open(path, "r", encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (s.strip() for s in line.split("=", 1))
                for cls, kw in kws.items():
                    if key in defaults[cls]:
                        kind = type(defaults[cls][key])
                        try:
                            kw[key] = kind(value)
                        except ValueError:
                            raise UsageError(
                                f"{path}:{lineno}: '{key}' expects {kind.__name__}, "
                                f"got '{value}'"
                            ) from None
                        break
                else:
                    raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
    try:
        model_cfg, train_cfg, data_cfg = (cls(**kw) for cls, kw in kws.items())
        if not 2 <= data_cfg.seq_len <= model_cfg.max_seq_len:
            raise ValueError(f"seq_len must be in [2, max_seq_len = {model_cfg.max_seq_len}], "
                             f"got {data_cfg.seq_len}")
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return model_cfg, train_cfg, data_cfg


def _int_at_least(lo):
    """argparse type that accepts a decimal integer of at least ``lo``."""
    def parse(text):
        if not text.isdecimal() or int(text) < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return int(text)
    return parse


def _require_file(path, flag):
    if path is None or not os.path.isfile(path):
        raise UsageError(f"{flag}: no such file: {path}")


def _load_docs(path):
    """The documents of a --data file; a malformed record is a usage error."""
    try:
        return data_mod.load_corpus(path)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_inputs(config, docs, seq_len=None, experts=1, step=0, total_steps=None):
    """Refuse, before any file is written or any forward runs, inputs that do
    not fit the ``config`` of the model a verb will run: a --data byte outside
    its vocabulary, a ``seq_len`` above its ``max_seq_len``, fewer than
    ``experts`` experts, or a resumed checkpoint's ``step`` past the run's
    ``total_steps``."""
    top = {}  # the largest byte of each domain, in first-seen order
    for doc in docs:
        if doc.tokens.size:
            top[doc.domain] = max(top.get(doc.domain, 0), int(doc.tokens.max()))
    for domain, byte in top.items():
        if byte >= config.vocab_size:
            raise UsageError(f"--data: domain {domain} has byte {byte}, outside the model's "
                             f"vocab_size {config.vocab_size}")
    if seq_len is not None and seq_len > config.max_seq_len:
        raise UsageError(f"seq_len = {seq_len} exceeds the model's max_seq_len = "
                         f"{config.max_seq_len}")
    if config.num_experts < experts:
        raise UsageError(f"--ckpt: the model has {config.num_experts} expert(s), "
                         f"fewer than the {experts} this verb needs")
    if total_steps is not None and step > total_steps:
        raise UsageError(f"--resume: the checkpoint is at step {step}, past the run's "
                         f"total_steps = {total_steps}")


def _load_valsets(docs, seq_len, limit):
    packed = data_mod.pack_sequences(docs, seq_len)
    if not packed:
        raise UsageError("--data: no records")
    short = sorted(d for d, rows in packed.items() if not len(rows))
    if short:
        raise UsageError(f"--data: shorter than one sequence of {seq_len} tokens: "
                         f"domain {', '.join(short)}")
    return {d: rows[:limit] for d, rows in packed.items()}


def _model_and_valsets(args, experts=1):
    """The --ckpt model and the --data validation sets of an analysis verb
    that needs a model of at least ``experts`` experts."""
    _require_file(args.ckpt, "--ckpt")
    _require_file(args.data, "--data")
    model, state = load_checkpoint(args.ckpt)
    log.info("loaded checkpoint at step %d", state.t)
    docs = _load_docs(args.data)
    _check_inputs(model.config, docs, experts=experts)
    return model, _load_valsets(docs, model.config.max_seq_len, args.limit)


def cmd_train(args):
    model_cfg, train_cfg, data_cfg = parse_config(args.config)
    if args.seed is not None:
        train_cfg.seed = args.seed
    _require_file(args.data, "--data")
    if args.resume:
        _require_file(args.resume, "--resume")
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise UsageError(f"--out: {args.out} exists and is not a directory")
    if os.path.isdir(args.out) and os.listdir(args.out) and not args.force:
        raise UsageError(f"--out: {args.out} exists and is not empty (use --force)")

    docs = _load_docs(args.data)
    if args.resume:
        model, state = load_checkpoint(args.resume)
        log.info("resuming at step %d", state.t)
    else:
        model = MoEModel(model_cfg, seed=train_cfg.seed)
        state = AdamWState.init(model.flat)
    _check_inputs(model.config, docs, seq_len=data_cfg.seq_len, step=state.t,
                  total_steps=train_cfg.total_steps)
    try:
        batches = data_mod.pack_batches(docs, data_cfg.seq_len, data_cfg.batch_size,
                                        train_cfg.seed)
    except ValueError as exc:
        raise UsageError(f"--data: {exc}") from None

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "config.txt"), "w", encoding="utf-8") as f:
        for cfg in (model.config, train_cfg, data_cfg):
            for k, v in dataclasses.asdict(cfg).items():
                f.write(f"{k} = {v}\n")

    final, metrics = trainer_mod.run_training(model, batches, train_cfg, args.out, state)
    print(f"final checkpoint: {final}")
    print(f"metrics log: {metrics}")
    return 0


def cmd_decompose(args):
    model, valsets = _model_and_valsets(args)
    reports = analysis.divergence_report(analysis.collect_traces(model, valsets))
    sys.stdout.write(analysis.report_csv(reports))
    return 0


def cmd_perturb(args):
    model, valsets = _model_and_valsets(args, experts=2)
    if not 0 <= args.layer < model.config.num_layers:
        raise UsageError(
            f"--layer {args.layer} out of range: model has {model.config.num_layers} layers"
        )
    result = analysis.delta_ppl_mean(model, args.layer, valsets, args.seed, draws=args.draws)
    for records in result["draws"]:
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    print(json.dumps({"layer": args.layer, "mean_delta": result["mean_delta"]}, sort_keys=True))
    return 0


def cmd_heatmap(args):
    model, valsets = _model_and_valsets(args)
    traces = analysis.collect_traces(model, valsets)
    heatmap = analysis.inverse_heatmap if args.inverse else analysis.activation_heatmap
    for layer in range(model.config.num_layers):
        print(f"# layer {layer}")
        sys.stdout.write(heatmap(traces, layer).to_csv())
    return 0


def cmd_ternary(args):
    model, valsets = _model_and_valsets(args)
    if len(valsets) != 3:
        raise UsageError(f"--data: ternary needs exactly 3 domains, got {len(valsets)}")
    traces = analysis.collect_traces(model, valsets)
    for layer in range(model.config.num_layers):
        inv = analysis.inverse_heatmap(traces, layer)
        rows = [[*pt, *p] for pt, p in zip(analysis.ternary_coords(inv), inv.values)]
        print(f"# layer {layer}")
        sys.stdout.write(analysis.csv_table(["expert", "x", "y", *(f"p_{d}" for d in inv.cols)],
                                            enumerate(rows)))
    return 0


def cmd_check(args):
    ok = checks.run_all(out=print)
    if not ok:
        raise RuntimeError("invariant suite failed")
    return 0


def build_parser():
    parser = _Parser(prog="moediv", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train", help="train a model on a labeled corpus")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--data", required=True, help="JSONL corpus with text/domain fields")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--force", action="store_true", help="allow non-empty --out")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    flags = argparse.ArgumentParser(add_help=False)  # every analysis verb's flags
    flags.add_argument("--ckpt", required=True)
    flags.add_argument("--data", required=True)
    flags.add_argument("--limit", type=_int_at_least(1), default=100, help="sequences per domain")

    p = sub.add_parser("decompose", parents=[flags], help="per-layer divergence report")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("perturb", parents=[flags], help="router-permutation delta-PPL analysis")
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--draws", type=_int_at_least(1), default=3)
    p.set_defaults(fn=cmd_perturb)

    p = sub.add_parser("heatmap", parents=[flags], help="expert activation heatmaps as CSV")
    p.add_argument("--inverse", action="store_true", help="P(domain|expert) form")
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser("ternary", parents=[flags], help="3-domain simplex coordinates per expert")
    p.set_defaults(fn=cmd_ternary)

    p = sub.add_parser("check", help="run the invariant suite")
    p.set_defaults(fn=cmd_check)
    return parser


def run(argv=None) -> int:
    level = os.environ.get("MOEDIV_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        log.debug("traceback", exc_info=True)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
