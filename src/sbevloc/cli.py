"""Command line entry point: ``sbevloc run [--config FILE] --out DIR``.

`run` executes the evaluation protocol of `evaluate.run_experiment`. It
writes the resolved config to DIR/config.json before the run and the report
to DIR/report.csv after it, then prints the report as a table. Without
--config the run uses the defaults of `RunConfig`. Package errors become
exit codes: InputError 2, FormatError 3, NumericalError 4. A DIR that
cannot be made, or a file in it that cannot be written, is an InputError.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from .config import RunConfig, load_config, save_resolved_config
from .errors import FormatError, InputError, NumericalError, SbevError
from .evaluate import format_report_table, run_experiment, write_report_csv

EXIT_CODES = ((InputError, 2), (FormatError, 3), (NumericalError, 4))


@contextmanager
def _writing(path):
    """Turn an OSError raised in the block into an InputError naming `path`."""
    try:
        yield
    except OSError as e:
        raise InputError(f"{path}: cannot write ({e.strerror or e})") from None


def _run(config_path, out_dir) -> None:
    cfg = load_config(config_path) if config_path else RunConfig()
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    with _writing(path):
        save_resolved_config(path, cfg)
    rows, _ = run_experiment(cfg)
    path = os.path.join(out_dir, "report.csv")
    with _writing(path):
        write_report_csv(path, rows)
    print(format_report_table(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sbevloc")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the experiment and write its report")
    run.add_argument("--config", help="JSON run config (default: built-in defaults)")
    run.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    try:
        _run(args.config, args.out)
    except SbevError as e:
        print(f"sbevloc: error: {e}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES if isinstance(e, cls)), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
