"""One verify_default op: a fresh process that runs ``nilcert.cli.main``
with the given arguments, exactly as the ``nilcert`` console script does.

    python3 verify_child.py [--trace OUT_PREFIX | --samples OUT] verify ...

With ``--trace``, the tracer's wrappers go in before ``main`` is called;
afterwards the process writes ``OUT_PREFIX.json`` (the trace summary) and
``OUT_PREFIX.spans.gz`` (its spans).  With ``--samples``, the process
samples the machine's speed from before it imports nilcert until ``main``
returns (see calib.py) and then writes the samples to ``OUT`` as JSON.
The report on stdout and the exit code are ``main``'s own either way.
"""

import json
import sys


def _sampled(out: str, argv: list) -> int:
    import calib
    sampler = calib.Sampler()
    sampler.install()
    try:
        from nilcert.cli import main
        return main(argv)
    finally:
        sampler.uninstall()
        with open(out, "w") as f:
            json.dump(sampler.samples, f)


def _main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["--samples"]:
        return _sampled(argv[1], argv[2:])
    if argv[:1] != ["--trace"]:
        from nilcert.cli import main
        return main(argv)
    prefix, argv = argv[1], argv[2:]
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    from nilcert import cli
    code = cli.main(argv)
    tracer.uninstall()
    sys.stdout.flush()
    with open(prefix + ".json", "w") as f:
        json.dump(tracer.summary(), f)
    tracer.write_spans(prefix + ".spans.gz")
    return code


if __name__ == "__main__":
    sys.exit(_main())
