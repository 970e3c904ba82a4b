"""Write the reference records the benchmark compares its outputs with.

    python3 benchmarks/make_references.py [workload ...]

Runs the first ops of each workload for the reference seed, untimed, and
writes their output records to benchmarks/references/<workload>.json. The
counts cover several times the records one default run makes at the time
of writing; records past the end are checked against the invariants only. Re-run
this only when a change is meant to move the outputs, and say so.
"""

import json
import sys

import bootstrap

# Records per workload: one per fig2 op and one per fig1 call (nine per op);
# search_trace records its whole input pool.
REFERENCE_RECORDS = {"fig2_n800": 300, "fig1_scan": 2400}


def main(argv) -> int:
    bootstrap.prepare()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    for name in names:
        workload = workloads.WORKLOADS[name](workloads.REFERENCE_SEED)
        workload.prepare()
        count = REFERENCE_RECORDS.get(name) or len(workload.pool)
        by_index = {}
        i = 0
        while len(by_index) < count:
            out = workload.op(i)
            problems = workload.check(i, out)
            if problems:
                raise SystemExit(f"{name} op {i} fails its checks: {problems}")
            by_index.update(workload.records(i, out))
            i += 1
        records = [by_index[k] for k in range(count)]
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            # one record per line, so a changed op shows as a changed line
            fh.write(f'{{"workload": "{name}", "seed": {workloads.REFERENCE_SEED}, "records": [\n')
            fh.write(",\n".join(json.dumps(r) for r in records))
            fh.write("\n]}\n")
        print(f"{name}: {count} records -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
