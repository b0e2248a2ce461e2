"""Regenerate `reference/seed0.json`, the stored outputs the checks compare
against on the default seed.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to change these
outputs, and say so in the change.
"""

import json
import sys

import run


def main():
    cli = run.import_program()
    import workloads

    workloads.REFERENCE_FILE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE_FILE.write_text(json.dumps({"corners-k5": {}, "slice-dl-k3l3": {}}))
    ref = {}
    for name, extract in (
        ("corners-k5", lambda out: json.loads(out)["results"]["vertices"]),
        ("slice-dl-k3l3", workloads.slice_grid),
    ):
        ops = run.setup(name, workloads.DEFAULT_SEED, run.WORK / f"{name}-reference")
        ref[name] = {}
        for op in ops:
            code, out, _ = run.call_cli(cli, op.argv)
            status, msg = op.check(code, out)
            if status != workloads.OK:
                sys.exit(f"{name} {op.key}: {status} {msg}")
            ref[name][op.key] = extract(out)
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
