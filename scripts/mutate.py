#!/usr/bin/env python3
"""Mutation harness: checks that tier-1 tests kill a committed list of bugs.

Usage, from the repository root:

    python3 scripts/mutate.py --check-anchors
    python3 scripts/mutate.py [--work-dir DIR] [--jobs N] [--only ID ...]

scripts/mutants.json lists the mutants. Each entry has:

  id           a short unique name;
  file         the source file to mutate, relative to the repository root;
  anchor       text that occurs exactly once in that file;
  replacement  what the anchor becomes in the mutant (may be empty);
  filter       the --gtest_filter of the efeu_tests cases expected to fail;
  what         one line on the bug the mutant models;
  equivalent   (optional) why no test can tell the mutant from the original.
               Such mutants are documented, not run.

--check-anchors only validates the list against the tree: every anchor
occurs exactly once in its file, ids are unique, and every field is there.
It builds nothing; ctest runs it so the list cannot rot.

A full run copies the repository's files to a work directory outside the
checkout (a fresh temporary directory unless --work-dir names one), builds
efeu_tests there once, and then for each mutant: applies it, rebuilds
incrementally, runs the filter, and restores the file. A mutant is killed
when the filtered tests fail or time out. A mutant that does not compile is
an error in the list. The run prints one line per mutant and the kill rate,
and exits nonzero when a mutant survives or errs.

Stdlib only; needs cmake, a C++ compiler and GoogleTest, as the build does.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(ROOT, "scripts", "mutants.json")
REQUIRED = ("id", "file", "anchor", "replacement", "filter", "what")
TEST_TIMEOUT_S = 600


def load_mutants():
    with open(MUTANTS, encoding="utf-8") as f:
        return json.load(f)


def check_anchors(mutants, root):
    """Returns a list of problems with the mutant list against `root`."""
    problems = []
    seen = set()
    for index, mutant in enumerate(mutants):
        name = mutant.get("id", f"#{index}")
        missing = [key for key in REQUIRED
                   if key not in mutant or (key != "replacement" and not mutant[key])]
        if missing:
            problems.append(f"{name}: missing {', '.join(missing)}")
            continue
        if name in seen:
            problems.append(f"{name}: duplicate id")
        seen.add(name)
        if mutant["anchor"] == mutant["replacement"]:
            problems.append(f"{name}: replacement equals the anchor")
        path = os.path.join(root, mutant["file"])
        if not os.path.isfile(path):
            problems.append(f"{name}: no file {mutant['file']}")
            continue
        with open(path, encoding="utf-8") as f:
            count = f.read().count(mutant["anchor"])
        if count != 1:
            problems.append(f"{name}: anchor occurs {count} times in {mutant['file']}")
    return problems


def copy_tree(work):
    """Copies the repository's files (git's view when available) to work/tree.

    A file whose copy already holds the same bytes is left alone, so a reused
    work directory rebuilds only what changed."""
    tree = os.path.join(work, "tree")
    try:
        listed = subprocess.run(
            ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            stdout=subprocess.PIPE, check=True).stdout.decode().split("\0")
    except (OSError, subprocess.CalledProcessError):
        listed = None
    if listed is None:
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "build*", ".bench_build", "Testing"))
        return tree
    for rel in filter(None, listed):
        source = os.path.join(ROOT, rel)
        if not os.path.isfile(source):
            continue  # Deleted in the working tree but still in the index.
        target = os.path.join(tree, rel)
        if os.path.isfile(target):
            with open(source, "rb") as a, open(target, "rb") as b:
                if a.read() == b.read():
                    continue
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copyfile(source, target)
    return tree


def build(tree, build_dir, jobs):
    """Builds efeu_tests; returns (ok, log tail)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", tree, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=subprocess.DEVNULL, check=True)
    proc = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "efeu_tests", "-j", str(jobs)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode == 0, proc.stdout[-2000:]


def run_filter(build_dir, test_filter):
    """Runs the filtered tests; returns the mutant's status."""
    binary = os.path.join(build_dir, "tests", "efeu_tests")
    try:
        proc = subprocess.run([binary, f"--gtest_filter={test_filter}"],
                              cwd=os.path.dirname(binary), stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=TEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    if proc.returncode != 0:
        return "killed"
    if "[  PASSED  ] 0 tests" in proc.stdout:
        return "error (filter matches no test)"
    return "survived"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-anchors", action="store_true",
                        help="only validate the mutant list against the tree")
    parser.add_argument("--work-dir", help="where to copy and build the tree")
    parser.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    parser.add_argument("--only", nargs="+", metavar="ID", help="run just these mutants")
    args = parser.parse_args()

    mutants = load_mutants()
    problems = check_anchors(mutants, ROOT)
    for problem in problems:
        print(f"mutants.json: {problem}", file=sys.stderr)
    if problems:
        return 1
    if args.check_anchors:
        print(f"{len(mutants)} mutants, every anchor found exactly once")
        return 0

    if args.only:
        unknown = set(args.only) - {m["id"] for m in mutants}
        if unknown:
            parser.error(f"unknown mutant ids: {', '.join(sorted(unknown))}")
        mutants = [m for m in mutants if m["id"] in args.only]
    work = os.path.abspath(args.work_dir or tempfile.mkdtemp(prefix="efeu-mutate-"))
    if os.path.commonpath([work, ROOT]) == ROOT:
        parser.error("--work-dir must lie outside the repository")
    tree = copy_tree(work)
    build_dir = os.path.join(work, "build")
    ok, log = build(tree, build_dir, args.jobs)
    if not ok:
        print(log, file=sys.stderr)
        print("mutate: the unmutated tree does not build", file=sys.stderr)
        return 1

    results = []
    for mutant in mutants:
        if mutant.get("equivalent"):
            results.append((mutant, "equivalent", 0.0))
            print(f"{mutant['id']:32s} equivalent: {mutant['equivalent']}", flush=True)
            continue
        start = time.monotonic()
        path = os.path.join(tree, mutant["file"])
        with open(path, encoding="utf-8") as f:
            original = f.read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(original.replace(mutant["anchor"], mutant["replacement"], 1))
        try:
            ok, log = build(tree, build_dir, args.jobs)
            status = run_filter(build_dir, mutant["filter"]) if ok else "error (does not build)"
        finally:
            with open(path, "w", encoding="utf-8") as f:
                f.write(original)
        if not ok:
            print(log, file=sys.stderr)
        seconds = time.monotonic() - start
        results.append((mutant, status, seconds))
        print(f"{mutant['id']:32s} {status:24s} {seconds:6.1f} s  {mutant['file']}", flush=True)

    run = [r for r in results if r[1] != "equivalent"]
    killed = sum(1 for _, status, _ in run if status.startswith("killed"))
    equivalent = len(results) - len(run)
    print(f"killed {killed} of {len(run)} run mutants; {equivalent} listed as equivalent")
    return 0 if killed == len(run) else 1


if __name__ == "__main__":
    sys.exit(main())
