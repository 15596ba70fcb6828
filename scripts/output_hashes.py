"""Print the sha256 of every output file of the benchmark workloads and of
the rerun configs.

    python scripts/output_hashes.py OUT [--seeds 0 5]

Run from the root of a checkout: shrinkerlab is imported from ./src and the
workload configs from ./perfbench/workloads.py, which is only read. Each
workload's configs at each seed run into OUT/<workload>/seed<s>, and each
config NAME.cfg of the reruns folder beside this script (the configs the CI
reruns byte for byte,
each naming its scenario and, in a "# exit: N" line, the exit status of
`python -m shrinkerlab` on it) runs through that entry point into
OUT/reruns/NAME; every directory is emptied first. One "sha256
relative-path" line is printed per file written, manifest.json included,
sorted by path; a rerun whose exit status is not its N makes the script
exit 1. A config's hash names its output directory, so two checkouts
compare when both run into the same OUT.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import os
import re
import shutil
import sys

RERUNS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reruns")


def _tree_hashes(root: str, top: str, sha256_file) -> list:
    """(path relative to top, sha256) of every file under root."""
    return [(os.path.relpath(os.path.join(path, file), top),
             sha256_file(os.path.join(path, file)))
            for path, _, names in os.walk(root) for file in names]


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
    lines, status = [], 0
    for name, (make_configs, _) in WORKLOADS.items():
        for seed in args.seeds:
            out = os.path.join(args.out, name, "seed%d" % seed)
            shutil.rmtree(out, ignore_errors=True)
            for text in make_configs(seed, out):
                labcli.run(labcli.validate_config(labcli.parse_config_text(text)))
            lines += _tree_hashes(out, args.out, ioutil.sha256_file)
    for path in sorted(glob.glob(os.path.join(RERUNS, "*.cfg"))):
        with open(path) as fh:
            text = fh.read()
        scenario = labcli.parse_config_text(text)["scenario"]
        want = re.search(r"^# exit: (\d+)$", text, re.M)
        if want is None:
            print("error: %s: no '# exit: N' line" % path, file=sys.stderr)
            status = 1
            continue
        want = int(want.group(1))
        out = os.path.join(args.out, "reruns",
                           os.path.splitext(os.path.basename(path))[0])
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            got = labcli.main([scenario, "--config", path, "--out", out])
        if got != want:
            print("error: %s: exit %d, expected %d" % (path, got, want),
                  file=sys.stderr)
            status = 1
        lines += _tree_hashes(out, args.out, ioutil.sha256_file)
    for rel, digest in sorted(lines):
        print("%s  %s" % (digest, rel))
    return status


if __name__ == "__main__":
    sys.exit(main())
