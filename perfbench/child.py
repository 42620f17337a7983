"""Child-process entry points of the benchmark.

    python child.py setup CONFIG
        Times import rindlersim + load_config + build_generator +
        TransportStepper(...) in a fresh process; prints {"setup_s": ...}.

    python child.py trace SPANS -- <rindlersim arguments>
        Runs the rindlersim CLI with timing wrappers from tracing.py and
        writes spans and counters to SPANS when it ends.  Exits with the
        CLI's own code.
"""

import json
import os
import sys
import time


def setup(config_path: str) -> int:
    start = time.perf_counter()
    import rindlersim
    from rindlersim.evolution import TransportStepper

    config = rindlersim.load_config(config_path)
    generator = rindlersim.build_generator(config.window, mode=config.mode, delta=config.delta)
    TransportStepper(generator, config.solver)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def trace(spans_path: str, argv) -> int:
    start = time.perf_counter()
    import rindlersim.cli

    import_s = time.perf_counter() - start
    from tracing import CHILD_WRAPS, Tracer

    tracer = Tracer()
    tracer.count("cli.import_s", import_s)

    def on_evolve(manifest):
        paths = manifest["snapshot_paths"] + [manifest["report_path"]]
        tracer.count("runner.files_written", len(paths))
        tracer.count("runner.bytes_written", sum(os.path.getsize(p) for p in paths))
        tracer.count("evolution.snapshots_held", len(manifest["result"].snapshots))

    for owner, attr, name in CHILD_WRAPS:
        hook = on_evolve if name == "runner.cmd_evolve" else None
        tracer.wrap(owner, attr, name, on_return=hook)
    try:
        return rindlersim.cli.main(argv)
    finally:
        tracer.dump(spans_path)


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        return setup(argv[1])
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return trace(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
