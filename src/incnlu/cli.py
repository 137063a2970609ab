"""Command-line front end: train, eval, parse, and a word-stream mode.

Exit codes are part of the contract: 0 for success, 1 for usage, config,
data or file-system problems, 2 when an evaluation consistency check
fails. The stream mode is line-oriented so it can sit at the end of a
shell pipe: one word per line to add, ``<REVOKE>`` to retract, a blank
line to end the utterance. An edit that is applied answers with one
tab-separated result line on standard output. A blank line answers
nothing. A refused edit, a REVOKE on an empty hypothesis or a payload the
buffer rejects (such as a line with a space inside), answers with one
``error: ...`` line on standard error and none on standard output, so
output lines pair with applied edits, not with input lines (ROADMAP item
22 plans one output line per input line). Input text, from a file or
standard input, is read as UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import interpreter as interp_mod
from .config import default_config, load_config
from .data import load_dataset
from .errors import BufferUnderflowError, DataError, IncnluError, InvalidPayloadError, ParameterError
from .evaluation import NOISE_RATES, evaluate
from .iu import EditType
from .registry import REGISTRY
from .results import NluResult

USAGE_EXIT = 1
CONSISTENCY_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for failed
    consistency checks, so usage problems are remapped to 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="incnlu", description="word-by-word incremental NLU")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_train = sub.add_parser("train", help="train a pipeline and persist the bundle")
    p_train.add_argument("--config", help="pipeline config file (default: built-in five-component pipeline)")
    p_train.add_argument("--data", required=True, help="training data (.json or .md)")
    p_train.add_argument("--out", required=True, help="bundle output directory")
    p_train.add_argument("--seed", type=int, default=13, help="training seed (default 13)")

    p_eval = sub.add_parser("eval", help="evaluate a bundle: F1, equivalence, noise protocol")
    p_eval.add_argument("--model", required=True, help="bundle directory")
    p_eval.add_argument("--test", required=True, help="test data (.json or .md)")
    p_eval.add_argument(
        "--noise-rate",
        type=float,
        default=None,
        help="single insertion rate (default: run 0.0, 0.4 and 1.0)",
    )
    p_eval.add_argument("--seed", type=int, default=97, help="noise sampling seed (default 97)")
    p_eval.add_argument("--report", help="write machine-readable key/value report here")

    p_parse = sub.add_parser("parse", help="parse whole utterances, one per line")
    p_parse.add_argument("--model", required=True, help="bundle directory")
    p_parse.add_argument("--input", help="utterance file (default: standard input)")

    p_stream = sub.add_parser("stream", help="word-per-line incremental session on stdin")
    p_stream.add_argument("--model", required=True, help="bundle directory")
    return parser


def _format_result(result: NluResult) -> str:
    confidence = result.intent_ranking[0][1] if result.intent_ranking else 0.0
    entities = ";".join(
        f"{span.type}:{span.value}:{span.start}:{span.end}" for span in result.entities
    )
    return f"{result.intent}\t{confidence:.6f}\t{entities}"


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else default_config()
    # The CLI seed reaches every component that takes one, unless the config
    # pinned an explicit value.
    for spec in config.components:
        cls = REGISTRY.get(spec.name)
        if cls is not None and "seed" in cls.defaults and "seed" not in spec.params:
            spec.params["seed"] = args.seed
    dataset = load_dataset(args.data)
    interp = interp_mod.train_pipeline(config, dataset, seed=args.seed)
    interp.persist(args.out)
    print(f"trained on {len(dataset)} utterances, bundle at {args.out}")
    for name, seconds in interp.training_timings:
        print(f"  {name:28s} {seconds * 1e3:8.1f} ms")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.noise_rate is not None and not 0.0 <= args.noise_rate <= 1.0:
        raise ParameterError(f"--noise-rate must be in [0, 1], got {args.noise_rate}")
    interp = interp_mod.load(args.model)
    test = load_dataset(args.test)
    rates = (args.noise_rate,) if args.noise_rate is not None else NOISE_RATES
    report = evaluate(interp, test, noise_rates=rates, noise_seed=args.seed)
    print(report.to_text())
    if args.report:
        Path(args.report).write_text(report.to_kv(), encoding="utf-8")
    return 0 if report.all_checks_pass() else CONSISTENCY_EXIT


def _stdin_lines():
    """Standard input's lines, read as UTF-8 whatever the locale says."""
    if hasattr(sys.stdin, "reconfigure"):  # not on a stream that holds text already
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    try:
        yield from sys.stdin
    except UnicodeDecodeError as exc:
        raise DataError(f"standard input: not UTF-8 ({exc})") from None


def cmd_parse(args: argparse.Namespace) -> int:
    interp = interp_mod.load(args.model)
    if args.input:
        try:
            lines = Path(args.input).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{args.input}: not UTF-8 ({exc})") from None
    else:
        lines = _stdin_lines()
    for line in lines:
        text = line.strip()
        if not text:
            continue
        result = interp.parse_full(text)
        print(_format_result(result), flush=True)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    interp = interp_mod.load(args.model)
    for line in _stdin_lines():
        token = line.strip()
        if not token:
            interp.new_utterance()
            continue
        try:
            if token == "<REVOKE>":
                result = interp.parse_incremental(EditType.REVOKE)
            else:
                result = interp.parse_incremental(EditType.ADD, token)
        except (BufferUnderflowError, InvalidPayloadError) as exc:
            print(f"error: {exc}", file=sys.stderr, flush=True)
            continue
        print(_format_result(result), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "parse": cmd_parse,
        "stream": cmd_stream,
    }
    try:
        return handlers[args.command](args)
    except (IncnluError, OSError) as exc:
        print(f"incnlu {args.command}: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
