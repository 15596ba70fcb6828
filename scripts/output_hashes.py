"""Print the sha256 of every output file of the benchmark workloads.

    python scripts/output_hashes.py OUT [--seeds 0 5]

Run from the root of a checkout: shrinkerlab is imported from ./src and the
workload configs from ./perfbench/workloads.py, which is only read. Each
workload's configs at each seed run into OUT/<workload>/seed<s> (emptied
first), and one "sha256  relative-path" line is printed per file written
there, manifest.json included, sorted by path. A config's hash names its
output directory, so two checkouts compare when both run into the same OUT.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory the runs write under")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 5])
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
    import shrinkerlab
    from shrinkerlab import ioutil, labcli
    from workloads import WORKLOADS

    if not shrinkerlab.__file__.startswith(sys.path[0] + os.sep):
        sys.exit("error: imported shrinkerlab from %s, not from ./src"
                 % shrinkerlab.__file__)
    lines = []
    for name, (make_configs, _) in WORKLOADS.items():
        for seed in args.seeds:
            out = os.path.join(args.out, name, "seed%d" % seed)
            shutil.rmtree(out, ignore_errors=True)
            for text in make_configs(seed, out):
                labcli.run(labcli.validate_config(labcli.parse_config_text(text)))
            for root, _, names in os.walk(out):
                for file in names:
                    path = os.path.join(root, file)
                    lines.append((os.path.relpath(path, args.out),
                                  ioutil.sha256_file(path)))
    for rel, digest in sorted(lines):
        print("%s  %s" % (digest, rel))
    return 0


if __name__ == "__main__":
    sys.exit(main())
