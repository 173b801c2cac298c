"""One cold set-up of a workload in a fresh process.

Times the library import, the input generation and the first gradient call,
and prints them as one JSON line. The benchmark runs this several times per
run and reports medians, because import and first-call costs occur once per
process.

    python3 gradbench/probe.py '<workload spec as JSON>' <seed>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.prepare()

import workloads  # noqa: E402


def main(argv):
    spec, seed = argv
    t_import = time.perf_counter()
    s = workloads.setup(workloads.Workload(**json.loads(spec)), int(seed))
    t_gen = time.perf_counter()
    s.grad(s.warm)
    t_first = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": t_import - T0,
                "gen_s": t_gen - t_import,
                "first_s": t_first - t_gen,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1:])
