"""Child process of run.py that times the program's set-up.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG SEED

Does what `ametric-fix verify` does before its first check: import the
package, load and materialize the config, build the space and the map (whose
constructor runs the 200-probe range check).  Prints "ready" when done; the
parent takes the time from spawning this process until that line arrives.
"""

import sys

if __name__ == "__main__":
    src, config, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    from ametric_fix import cli

    cfg = cli.materialize_config(cli.load_config(config), config, seed)
    cli.build_map(cfg, cli.build_space(cfg, gated=False))
    print("ready", flush=True)
