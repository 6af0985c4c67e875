#!/usr/bin/env python3
"""Checks that every committed figure/ablation CSV is what its harness prints.

Runs each harness of bench/ at its defaults with --csv pointed into a
temporary directory (also the working directory, so side outputs such as
the run manifest land there too) and compares the printed CSV byte for byte
with the committed file at the repository root.

  python3 tools/check_csvs.py [--build-dir build] [--only NAME ...] [-j N]
  python3 tools/check_csvs.py --update      # rewrite the committed CSVs

Exit status: 0 when every CSV matches, 1 on a mismatch or a failed harness,
2 when a harness binary is missing (build the bench targets first).
"""
import argparse
import concurrent.futures
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Harness name == committed CSV stem == bench/ target name.
HARNESSES = [
    "fig3_femnist_convergence",
    "fig4_shakespeare_convergence",
    "fig5_random_poison",
    "fig6_label_flip",
    "table2_hyperparams",
    "ablation_async",
    "ablation_backdoor",
    "ablation_gossip",
    "ablation_privacy_comm",
    "ablation_robustness",
]


def run_one(binary, name, workdir):
    csv = os.path.join(workdir, name + ".csv")
    start = time.monotonic()
    proc = subprocess.run(
        [binary, "--csv", csv], cwd=workdir,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0 or not os.path.exists(csv):
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return name, csv, elapsed, f"exit {proc.returncode}: {tail}"
    return name, csv, elapsed, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"),
                        help="CMake build tree holding bench/ (default: build)")
    parser.add_argument("--only", nargs="+", choices=HARNESSES,
                        help="check only these harnesses")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="harnesses run at once (default 1)")
    parser.add_argument("--update", action="store_true",
                        help="copy the printed CSVs over the committed ones")
    args = parser.parse_args()

    names = args.only or HARNESSES
    binaries = {n: os.path.join(args.build_dir, "bench", n) for n in names}
    missing = [b for b in binaries.values() if not os.access(b, os.X_OK)]
    if missing:
        print("missing harness binaries:\n  " + "\n  ".join(missing),
              file=sys.stderr)
        return 2

    failures = 0
    with tempfile.TemporaryDirectory(prefix="check_csvs_") as tmp:
        jobs = []
        with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as ex:
            for name in names:
                workdir = os.path.join(tmp, name)
                os.makedirs(workdir)
                jobs.append(ex.submit(run_one, binaries[name], name, workdir))
            for job in jobs:
                name, csv, elapsed, error = job.result()
                committed = os.path.join(ROOT, name + ".csv")
                if error is not None:
                    status = "FAILED " + error
                    failures += 1
                elif args.update:
                    shutil.copyfile(csv, committed)
                    status = "written"
                elif not os.path.exists(committed):
                    status = "no committed file"
                    failures += 1
                elif filecmp.cmp(csv, committed, shallow=False):
                    status = "identical"
                else:
                    status = "DIFFERS"
                    failures += 1
                print(f"{name + '.csv':36s} {status:10s} ({elapsed:.1f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
