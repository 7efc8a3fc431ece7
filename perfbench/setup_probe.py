"""Set-up probe: import the program, build a scenario's network and trip
table, print the split as JSON.

Run as ``python3 perfbench/setup_probe.py <scenario> <trips>`` with the
program on ``PYTHONPATH``; the benchmark times the whole process from
outside and reads the split for its traced per-layer numbers.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    from repro.scenarios import get_scenario

    imported = time.perf_counter()
    scenario = get_scenario(sys.argv[1])
    scenario.network()
    scenario.trip_table(int(sys.argv[2]))
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "spec_s": built - imported}))
