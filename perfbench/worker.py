"""One benchmark round in a fresh process: set up, run, report.

Usage: python3 worker.py ROUND_JSON OUT_DIR RESULT_JSON TRACE(0|1) CPU

Runs from the root of an evocf checkout and imports the package from its
`src/`. Set-up (`prepare_experiment`) is repeated `setup_repeats` times so
its median is steady; the run (`run_benchmark`) happens once and writes its
CSV and JSON outputs to OUT_DIR. The result file holds raw timings, the job
spans and, when traced, the per-layer figures.
"""

from __future__ import annotations

import json
import os
import platform
import shlex
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def main(argv: list[str]) -> int:
    round_path, out_dir, result_path, trace, cpu = argv
    os.sched_setaffinity(0, {int(cpu)})
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from evocf import harness, predictor

    from tracer import Tracer

    round_ = json.loads(Path(round_path).read_text())
    fields = dict(round_["spec"], output_dir=out_dir)
    if "synthetic" in fields:
        fields["synthetic"] = harness.SyntheticSpec(**fields["synthetic"])
    fields["config_names"] = tuple(fields["config_names"])
    spec = harness.ExperimentSpec(**fields)

    factory = None
    if round_["external"] is not None:
        # the scorer needs no site-packages: -I -S keeps its start-up to the
        # interpreter's own
        command = shlex.join(
            [
                sys.executable,
                "-I",
                "-S",
                str(HERE / "scorer.py"),
                round_["external"]["critical_activity"],
                str(round_["external"]["min_hits"]),
            ]
        )

        def factory(encoder):
            return predictor.ExternalProcessPredictor(command, encoder)

    tracer = Tracer(detailed=trace == "1")
    tracer.install()
    setup_s = []
    for _ in range(round_["setup_repeats"]):
        start = time.perf_counter()
        prepared = harness.prepare_experiment(spec, predictor_factory=factory)
        setup_s.append(time.perf_counter() - start)
    tracer.job = "harness"
    start = time.perf_counter()
    harness.run_benchmark(spec, prepared)
    run_s = time.perf_counter() - start
    tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "jobs": tracer.jobs,
        "traces_encoded": len(prepared.train) + len(prepared.test),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer.detailed:
        result["layers"] = tracer.layer_metrics(round_["setup_repeats"], run_s)
        result["cycle_ms"] = {str(job): ms for job, ms in tracer.cycle_intervals().items()}
    Path(result_path).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
