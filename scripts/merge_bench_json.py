#!/usr/bin/env python3
"""Merge per-bench --json reports into one BENCH_check.json.

Usage: merge_bench_json.py OUTPUT INPUT [INPUT...]
       merge_bench_json.py --self-test

Each input is either the `{"bench": name, "rows": [...]}` file a bench binary
wrote via --json, or a previously merged `{"benches": {name: rows}}` file
(so a perf-smoke job can re-merge a fresh section into the last artifact).
Inputs are applied left to right.

Rows are deduplicated per bench, so re-running a bench section keeps
exactly one (the newest) row per configuration instead of appending
duplicates. An ablation-shaped row (one carrying "config", "por" and
"collapse") is keyed by (section, config, por, collapse). Any other row is
keyed by its non-float fields: the benches write every timing as a float
(JsonRow::Set(double) always prints a decimal point) and every identifying
field (section, config, threads, counts) as a string, integer or boolean.

The merged file re-checks the reduction soundness tripwire across every
ablation row: a reduced search (por or collapse on) must never store more
states than the unreduced run of the same config, and must agree on the
verdict. Exits nonzero on violation so CI fails even if a bench binary's own
tripwire was bypassed.

Stdlib only.
"""

import json
import os
import sys
import tempfile


def row_key(row):
    """Dedup key: configuration identity for ablation rows, the non-float
    fields otherwise (a fresh run of the same row differs only in its
    timings, which are floats)."""
    if "config" in row and "por" in row and "collapse" in row:
        return ("ablation", row.get("section"), row["config"], row["por"], row["collapse"])
    fixed = {k: v for k, v in row.items() if not isinstance(v, float)}
    return ("row", json.dumps(fixed, sort_keys=True))


def dedupe(rows):
    """Keeps the newest row per key, preserving first-seen order of keys."""
    by_key = {}
    order = []
    for row in rows:
        key = row_key(row)
        if key not in by_key:
            order.append(key)
        by_key[key] = row
    return [by_key[key] for key in order]


def load_reports(path):
    """Yields (bench_name, rows) pairs from a per-bench or merged file."""
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    if "benches" in report:
        for name, rows in report["benches"].items():
            yield name, rows
    else:
        yield report.get("bench", path), report.get("rows", [])


def merge(output_path, input_paths):
    merged = {"benches": {}}
    for path in input_paths:
        for name, rows in load_reports(path):
            merged["benches"].setdefault(name, []).extend(rows)
    for name in merged["benches"]:
        merged["benches"][name] = dedupe(merged["benches"][name])

    ablation_rows = [
        r
        for rows in merged["benches"].values()
        for r in rows
        if "por" in r and "collapse" in r and "config" in r
    ]

    failures = []
    by_config = {}
    for row in ablation_rows:
        by_config.setdefault(row["config"], []).append(row)
    for config, rows in sorted(by_config.items()):
        baseline = [r for r in rows if not r["por"] and not r["collapse"]]
        if not baseline:
            failures.append(f"{config}: no unreduced baseline row")
            continue
        base = baseline[0]
        for row in rows:
            if row is base:
                continue
            if row["states"] > base["states"]:
                failures.append(
                    f"{config}: por={row['por']} collapse={row['collapse']} stored "
                    f"{row['states']} states > unreduced {base['states']}"
                )
            if row["ok"] != base["ok"]:
                failures.append(
                    f"{config}: por={row['por']} collapse={row['collapse']} verdict "
                    f"{row['ok']} != unreduced {base['ok']}"
                )

    merged["soundness"] = {"ok": not failures, "failures": failures}
    with open(output_path, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")

    for failure in failures:
        print(f"TRIPWIRE: {failure}", file=sys.stderr)
    print(
        f"merged {len(input_paths)} report(s), {len(ablation_rows)} ablation row(s) "
        f"-> {output_path}"
    )
    return 1 if failures else 0


def self_test():
    """Exercises dedupe and re-merge stability without touching the repo."""

    def bench_row(config, por, collapse, states, ok=True, section="fault_ablation", **extra):
        row = {
            "section": section,
            "config": config,
            "por": por,
            "collapse": collapse,
            "states": states,
            "ok": ok,
        }
        row.update(extra)
        return row

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, payload):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(payload, f)
            return path

        out = os.path.join(tmp, "merged.json")

        # Re-running a section must replace, not append: the second report's
        # row (newer states count) wins for the shared key.
        first = write(
            "first.json",
            {
                "bench": "fig9",
                "rows": [
                    bench_row("eep1", False, False, 100),
                    bench_row("eep1", True, True, 50, seconds=1.0),
                ],
            },
        )
        second = write(
            "second.json",
            {"bench": "fig9", "rows": [bench_row("eep1", True, True, 40, seconds=2.0)]},
        )
        assert merge(out, [first, second]) == 0
        with open(out, encoding="utf-8") as f:
            merged = json.load(f)
        rows = merged["benches"]["fig9"]
        assert len(rows) == 2, rows
        newest = [r for r in rows if r["por"] and r["collapse"]]
        assert len(newest) == 1 and newest[0]["states"] == 40, rows

        # Re-merging the merged artifact with the same fresh report is a
        # fixed point: row counts stay stable across repeated smoke runs.
        assert merge(out, [out, second]) == 0
        with open(out, encoding="utf-8") as f:
            remerged = json.load(f)
        assert remerged["benches"]["fig9"] == rows, remerged["benches"]["fig9"]

        # Non-ablation rows that differ in a non-float field never collapse
        # (e.g. a thread-scaling sweep), but repeats of one row do.
        sweep = write(
            "sweep.json",
            {
                "bench": "scaling",
                "rows": [
                    {"section": "threads", "threads": 1, "seconds": 2.0},
                    {"section": "threads", "threads": 2, "seconds": 1.1},
                    {"section": "threads", "threads": 2, "seconds": 1.1},
                ],
            },
        )
        assert merge(out, [sweep]) == 0
        with open(out, encoding="utf-8") as f:
            merged = json.load(f)
        assert len(merged["benches"]["scaling"]) == 2, merged["benches"]["scaling"]

        # Re-merging a fresh report whose timings moved into the merged file
        # replaces each row instead of appending it (rows keyed by config,
        # every timing a float).
        def symex_row(config, seconds):
            return {"section": "symex", "config": config, "discharged": True,
                    "obligations": 22, "solver_ms": seconds * 1000,
                    "explicit_safety_states": 670, "explicit_seconds": seconds,
                    "sym_run_seconds": seconds * 2, "verdict_agrees": True}

        configs = [f"eep1-len{n}" for n in range(1, 7)]
        old_symex = write("symex_old.json", {
            "bench": "symex", "rows": [symex_row(c, 0.5) for c in configs]})
        new_symex = write("symex_new.json", {
            "bench": "symex", "rows": [symex_row(c, 0.75) for c in configs]})
        assert merge(out, [old_symex]) == 0
        assert merge(out, [out, new_symex]) == 0
        with open(out, encoding="utf-8") as f:
            symex = json.load(f)["benches"]["symex"]
        assert [r["config"] for r in symex] == configs, symex
        assert all(r["explicit_seconds"] == 0.75 for r in symex), symex

        # Soundness tripwire still fires through the dedupe path: a reduced
        # row storing more states than the unreduced baseline fails the run.
        bad = write(
            "bad.json",
            {
                "bench": "fig9",
                "rows": [
                    bench_row("eep2", False, False, 100),
                    bench_row("eep2", True, False, 120),
                ],
            },
        )
        assert merge(out, [bad]) == 1

    print("merge_bench_json self-test passed")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return merge(argv[1], argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
