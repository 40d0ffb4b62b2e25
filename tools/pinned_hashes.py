"""Print the sha256 of each pinned moediv output, one ``name sha256`` line each.

The outputs are byte-reproducible at a fixed BLAS thread count, so OpenBLAS
is set to one thread before numpy loads. The recipe:

- ``corpus-seed3``: ``synth_corpus(three_domain_demo_specs(), seed=3)`` as
  JSONL, one ``{"text", "domain"}`` record per document in order, which pins
  every domain label and token byte; training batches: ``pack_batches`` of
  the training documents of ``split_validation(docs, 64, 100)``, at seq_len
  64, batch size 8, seed 0;
- ``train-N``: ``MoEModel(ModelConfig(), seed=0)`` trained with
  ``TrainConfig(total_steps=N, warmup_steps=5, checkpoint_interval=10)``
  for N = 30 and N = 200, giving ``metrics.jsonl`` and ``final.moediv``;
- the stdout of decompose, perturb ``--layer 0`` and ``--layer 1``, heatmap, heatmap
  ``--inverse`` and ternary on the N = 200 checkpoint, reading the whole
  corpus as JSONL with ``--limit 20``;
- the stdout of ``moediv check``.

The lines are then compared with ``pinned_hashes.txt`` next to this script
in both directions: the script exits 1, naming each output whose line
differs and each pinned output that produced no line, if there is any.
Usage, from anywhere: python tools/pinned_hashes.py
To pin new hashes, redirect stdout into that file; that run compares with
the emptied file and exits 1.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from moediv import cli, data, trainer  # noqa: E402
from moediv.model import ModelConfig, MoEModel  # noqa: E402

VERBS = {
    "decompose": ["decompose"],
    "perturb-layer0": ["perturb", "--layer", "0"],
    "perturb-layer1": ["perturb", "--layer", "1"],
    "heatmap": ["heatmap"],
    "heatmap-inverse": ["heatmap", "--inverse"],
    "ternary": ["ternary"],
}


PINNED = pathlib.Path(__file__).with_name("pinned_hashes.txt")


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def stdout_of(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    if rc != 0:
        raise SystemExit(f"moediv {' '.join(argv)} exited {rc}")
    return buf.getvalue().encode("utf-8")


def compare(lines, pinned):
    """Exit 1 naming each of ``lines`` that is not in ``pinned`` and each name
    in ``pinned`` that no line gives, for example a dropped ``VERBS`` entry."""
    names = [line.split()[0] for line in lines]
    differ = [name for name, line in zip(names, lines) if line not in pinned]
    missing = [line.split()[0] for line in pinned if line.strip() and line.split()[0] not in names]
    faults = []
    if differ:
        faults.append(f"differs from {PINNED.name}: {', '.join(differ)}")
    if missing:
        faults.append(f"pinned in {PINNED.name} but not produced: {', '.join(missing)}")
    if faults:
        raise SystemExit("; ".join(faults))


def main():
    lines = []

    def emit(name, blob):
        lines.append(f"{name} {sha256(blob)}")
        print(lines[-1], flush=True)

    docs, _ = data.synth_corpus(data.three_domain_demo_specs(), seed=3)
    jsonl = "".join(json.dumps({"text": doc.tokens.tobytes().decode("utf-8"),
                                "domain": doc.domain}) + "\n" for doc in docs)
    emit("corpus-seed3", jsonl.encode("utf-8"))
    train_docs, _ = data.split_validation(docs, 64, 100)
    batches = data.pack_batches(train_docs, 64, 8, 0)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for steps in (30, 200):
            config = trainer.TrainConfig(total_steps=steps, warmup_steps=5, checkpoint_interval=10)
            final, metrics = trainer.run_training(
                MoEModel(ModelConfig(), seed=0), batches, config, tmp / f"train-{steps}")
            emit(f"train-{steps}/metrics.jsonl", pathlib.Path(metrics).read_bytes())
            emit(f"train-{steps}/final.moediv", pathlib.Path(final).read_bytes())
        corpus = tmp / "corpus.jsonl"
        corpus.write_text(jsonl, encoding="utf-8")
        for name, verb in VERBS.items():
            argv = verb + ["--ckpt", str(final), "--data", str(corpus), "--limit", "20"]
            emit(name, stdout_of(argv))
    emit("check", stdout_of(["check"]))
    compare(lines, PINNED.read_text(encoding="utf-8").splitlines())


if __name__ == "__main__":
    main()
