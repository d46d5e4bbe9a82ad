"""Child process of the set-up metric.

    python3 setup_probe.py SRC_DIR SCENARIO.cfg...

Imports transtri from SRC_DIR, parses every scenario and builds its mesh
and map, then prints the CLOCK_MONOTONIC reading at which the inputs were
ready; the parent subtracts the reading it took before spawning this
process.
"""

import os
import sys
import time

sys.path.insert(0, sys.argv[1])

from transtri import cli, grid_triangulation, map_from_params, read_mesh  # noqa: E402

for path in sys.argv[2:]:
    scenario = cli.load_scenario(path)
    spec = scenario.mesh_spec
    if spec["generator"] == "grid":
        grid_triangulation(spec["box_lo"], spec["box_hi"], spec["resolution"])
    else:
        read_mesh(os.path.join(scenario.base_dir, spec["path"]))
    map_from_params(scenario.map_family, scenario.map_params)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
