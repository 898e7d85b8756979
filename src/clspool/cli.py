"""Command-line entry points.

Subcommands:

    synth      generate a synthetic sentence-pair dataset (JSONL)
    train      k-fold cross-validated training; writes results.csv, a final
               checkpoint, and optional per-epoch [CLS] dumps
    eval       evaluate a checkpoint on a JSONL dataset
    project    PCA-project [CLS] dumps and score cluster tightness
    gradcheck  run the finite-difference gradient suite

Exit codes: 0 success, 1 data/runtime error (a bad file, a malformed input
line, an OS error, a non-finite value or an allocation that fails), 2 usage
error.
A ``--config`` file holds flat ``key=value`` lines mirroring the flags;
flags given on the command line override the file. A flag and a config line
parse a value by one route, so a bad value gets one reason from either.
Every setting, across keys too, and the ``--out`` directory are checked before
the data is read.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import os
import sys
from dataclasses import fields

import numpy as np

from .analysis import dump_trace, project_dump_dir
from .data import (SCHEMAS, DataError, Vocab, load_jsonl, pack_dataset, read_lines,
                   save_jsonl, synth_generate)
from .encoder import EncoderConfig
from .gradcheck import run_gradcheck
from .model import PooledClassifier
from .pooling import HEAD_KINDS
from .train import TrainConfig, cross_validated_train, evaluate, fit


def _int_list(text):
    """The comma-separated integers of ``text`` as a tuple; blank entries are skipped."""
    return tuple(int(v) for v in text.split(",") if v.strip())


_int_list.__name__ = "comma-separated integers"

# The `train` settings the CLI owns, with their types and defaults. The rest
# are the TrainConfig fields and the EncoderConfig fields in _ENCODER_KEYS
# (config key -> field); their types and defaults come from the dataclasses.
_CLI_KEYS = {"data": (str, None), "schema": (str, "absa"), "pooling": (str, "last"),
             "out": (str, "runs"), "dump_epochs": (_int_list, ()), "dump_layers": (_int_list, ())}
_ENCODER_KEYS = {"L": "L", "H": "H", "A": "A", "F": "F", "s_max": "S_max", "p_drop": "p_drop"}
_CHOICES = {"schema": sorted(SCHEMAS), "pooling": list(HEAD_KINDS)}
_HELP = {"data": "JSONL dataset (here or in the config file)", "out": "output directory",
         "dump_epochs": "comma-separated epochs at which to dump [CLS] states",
         "dump_layers": "comma-separated 1-based layers to dump (default: all)"}


def _train_keys():
    """Every `train` key mapped to its (type, default)."""
    keys = dict(_CLI_KEYS)
    keys.update({f.name: (type(f.default), f.default) for f in fields(TrainConfig)})
    encoder = {f.name: (type(f.default), f.default) for f in fields(EncoderConfig)}
    keys.update({key: encoder[name] for key, name in _ENCODER_KEYS.items()})
    return keys


_TRAIN_KEYS = _train_keys()


def _parse_setting(key, text):
    """The value of the `train` setting ``key`` written as ``text``, for its flag and
    its config line alike: the key's type, then its choices or bound, then the check
    of EncoderConfig or TrainConfig. A bad value raises a ValueError with the reason."""
    kind = _TRAIN_KEYS[key][0]
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"expected {kind.__name__}, got {text!r}") from None
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ValueError(f"expected one of {_CHOICES[key]}, got {text!r}")
    if kind is _int_list and min(value, default=1) < 1:
        raise ValueError(f"expected integers >= 1, got {text!r}")
    if kind is _int_list and len(set(value)) < len(value):
        raise ValueError(f"expected distinct integers, got {text!r}")
    if key in _ENCODER_KEYS:
        EncoderConfig.check_field(_ENCODER_KEYS[key], value)
    elif key not in _CLI_KEYS:
        TrainConfig.check_field(key, value)
    return value


def _flag_type(key):
    """The argparse type of the `train` flag for ``key``."""
    def parse(text):
        try:
            return _parse_setting(key, text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


def _default(fn, name):
    """The default of ``fn``'s parameter ``name``, so a flag states none of its own."""
    return inspect.signature(fn).parameters[name].default


def _int_at_least(low):
    """The argparse type of an integer flag that must be >= ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _read_config_file(path):
    """Typed ``key=value`` settings from a config file; a key set twice is an error."""
    values, set_on = {}, {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _TRAIN_KEYS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise DataError(f"{path}:{lineno}: {key}: already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = _parse_setting(key, val)
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {key}: {e}") from None
    return values


def _resolve(args, file_values):
    """Builtin defaults, overridden by config-file values, overridden by the
    flags given (a flag not given leaves no attribute on ``args``)."""
    merged = {**{key: default for key, (_, default) in _TRAIN_KEYS.items()}, **file_values,
              **{key: value for key, value in vars(args).items() if key in _TRAIN_KEYS}}
    if merged["data"] is None:
        raise DataError("no dataset given: pass --data or set data= in the config file")
    return merged


def _check_out(path):
    """Raise, creating nothing, the OSError that making directory ``path`` would give
    unless the nearest existing path at or above it is a directory we can write in."""
    below = here = os.path.abspath(path)
    while not os.path.lexists(here):
        below, here = here, os.path.dirname(here)
    if os.path.isdir(here) and os.access(here, os.W_OK | os.X_OK):
        return
    code = (errno.EACCES if os.path.isdir(here) else
            errno.EEXIST if here == below else errno.ENOTDIR)
    raise OSError(code, os.strerror(code), below)


def _cmd_synth(args):
    examples = synth_generate(args.n, classes=args.classes, seed=args.seed)
    save_jsonl(examples, args.out, "absa")
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


def _cmd_train(args):
    opt = _resolve(args, _read_config_file(args.config) if args.config else {})
    # The checks across keys: H and A, then the dump lists' upper bounds.
    config = TrainConfig(**{f.name: opt[f.name] for f in fields(TrainConfig)})
    enc = EncoderConfig(V=4, **{name: opt[key] for key, name in _ENCODER_KEYS.items()})
    for key, bound in (("dump_epochs", "epochs"), ("dump_layers", "L")):
        for v in opt[key]:
            if v > opt[bound]:
                raise DataError(f"--{key.replace('_', '-')}: {v} is out of range "
                                f"1..{opt[bound]} (--{bound})")
    dump_layers = opt["dump_layers"] or range(1, enc.L + 1)
    _check_out(opt["out"])
    examples = load_jsonl(opt["data"], opt["schema"])

    def epoch_hook(fold, epoch, model, held_out):
        # Dump the fold-0 held-out set at the requested epochs.
        if fold == 0 and epoch in opt["dump_epochs"]:
            dump_trace(model, held_out, epoch, dump_layers, os.path.join(opt["out"], "dumps"))

    n_classes = len(SCHEMAS[opt["schema"]][1])
    result = cross_validated_train(examples, enc, opt["pooling"], config,
                                   out_csv=os.path.join(opt["out"], "results.csv"),
                                   epoch_hook=epoch_hook, n_classes=n_classes)
    print(f"cv mean accuracy {result.mean['accuracy']:.4f}, "
          f"macro-F1 {result.mean['macro_f1']:.4f} over {config.folds} folds")

    # Final model trained on the full dataset, for `eval`.
    model = fit(result.model_config, opt["pooling"], n_classes, result.arrays, config,
                run=config.folds)
    ckpt = os.path.join(opt["out"], "model.ckpt")
    model.save(ckpt, extra_meta={"vocab": result.vocab.tokens(), "schema": opt["schema"]})
    print(f"wrote {os.path.join(opt['out'], 'results.csv')} and {ckpt}")
    return 0


def _cmd_eval(args):
    model, meta = PooledClassifier.load(args.checkpoint)
    if "vocab" not in meta:
        raise ValueError("checkpoint metadata has no 'vocab'")
    vocab = Vocab(meta["vocab"])
    examples = load_jsonl(args.data, meta["schema"])
    arrays = pack_dataset(examples, vocab, model.config.S_max)
    result = evaluate(model, arrays)
    print(f"accuracy {result.accuracy:.4f}")
    print(f"macro_f1 {result.macro_f1:.4f}")
    for c, f1 in enumerate(result.per_class_f1):
        flag = " (no true or predicted instances)" if c in result.empty_classes else ""
        print(f"f1_class{c} {f1:.4f}{flag}")
    return 0


def _cmd_project(args):
    rows = project_dump_dir(args.dumps, args.out)
    for epoch, layer, score, _, _ in sorted(rows):
        print(f"epoch {epoch} layer {layer}: cluster score {score:.4f}")
    return 0


def _cmd_gradcheck(args):
    ok, _ = run_gradcheck(seeds=args.seeds, report=print)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clspool",
        description="Train and analyze CLS-trace pooling classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic sentence-pair dataset")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=_default(synth_generate, "seed"))
    p.add_argument("--classes", type=int, default=_default(synth_generate, "classes"),
                   choices=range(1, len(SCHEMAS["absa"][1]) + 1))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="cross-validated training")
    p.add_argument("--config", help="key=value file; flags override it")
    for key, (_, default) in _TRAIN_KEYS.items():
        choices = _CHOICES.get(key)
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=_flag_type(key),
                       default=argparse.SUPPRESS,
                       metavar="{" + ",".join(choices) + "}" if choices else None,
                       help=_HELP.get(key, f"default: {default}"))
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("project", help="PCA-project [CLS] dumps")
    p.add_argument("--dumps", required=True, help="directory of dump CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seeds", type=_int_at_least(1), default=_default(run_gradcheck, "seeds"))
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        # A diverging run is reported once, by the explicit checks on loss,
        # gradient, logits, checkpoint and dump values, not by numpy warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (DataError, OSError, ValueError, IndexError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
