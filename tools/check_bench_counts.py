"""Compares a fresh micro-benchmark run with its committed BENCH_*.json.

Usage (from the directory the bench ran in):

    python3 tools/check_bench_counts.py COMMITTED.json FRESH.json

The bench is named by the files' "bench" field. Only fields that do not
depend on the host are compared: message, step, retry, crash and scrub
counts and every bit-identity flag. Virtual seconds are left out for
micro_allreduce and micro_recovery, because the environment document every
save stores (CPU model, kernel, compiler) varies in size between hosts.
micro_replication also compares its byte counts and virtual seconds when
that document has the committed run's size. Exits 1 when a compared field
differs, 0 otherwise.
"""

import json
import sys

# Host-independent counters of micro_allreduce and micro_recovery, by key
# at any depth; every key containing "bit_identical" is compared as well.
COUNT_FIELDS = {
    "micro_allreduce": {"messages", "collective_steps", "degraded_steps",
                        "collective_retries", "rejoin_syncs", "deterministic"},
    "micro_recovery": {"crashes", "restarts", "retrained_steps",
                       "storage_retries"},
}


def flatten(value, path=""):
    """Maps every leaf of a JSON value to its path, e.g. results[2].messages."""
    if isinstance(value, dict):
        leaves = {}
        for key, child in value.items():
            leaves.update(flatten(child, path + "." + key if path else key))
        return leaves
    if isinstance(value, list):
        leaves = {}
        for i, child in enumerate(value):
            leaves.update(flatten(child, "%s[%d]" % (path, i)))
        return leaves
    return {path: value}


def compare_counts(want, got, fields):
    want_leaves, got_leaves = flatten(want), flatten(got)
    compared, bad = set(), []
    for path in sorted(set(want_leaves) | set(got_leaves)):
        key = path.rsplit(".", 1)[-1]
        if key not in fields and "bit_identical" not in key:
            continue
        compared.add(key)
        if path not in want_leaves or path not in got_leaves:
            bad.append("%s: present in only one run" % path)
        elif want_leaves[path] != got_leaves[path]:
            bad.append("%s: %s != %s" % (path, got_leaves[path],
                                         want_leaves[path]))
    return sorted(compared), bad


def compare_replication(want, got):
    fields = ["messages", "scrub_sessions", "scrub_root_matches"]
    if want["environment_bytes"] == got["environment_bytes"]:
        fields += ["network_bytes", "virtual_seconds", "logical_bytes",
                   "physical_bytes"]
    else:
        print("environment document is %d bytes here, %d in the committed run:"
              " byte counts and virtual seconds not compared"
              % (got["environment_bytes"], want["environment_bytes"]))
    bad = ["%s R=%d %s: %s != %s" % (w["config"], w["replicas"], f, g[f], w[f])
           for w, g in zip(want["results"], got["results"])
           for f in fields if w[f] != g[f]]
    if len(want["results"]) != len(got["results"]):
        bad.append("row count differs")
    if got["logical_content_identical"] != want["logical_content_identical"]:
        bad.append("logical_content_identical differs")
    return fields, bad


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    want, got = (json.load(open(path)) for path in argv[1:3])
    bench = want.get("bench")
    if got.get("bench") != bench:
        print("bench differs: %s != %s" % (got.get("bench"), bench))
        return 1
    if bench == "micro_replication":
        fields, bad = compare_replication(want, got)
    elif bench in COUNT_FIELDS:
        fields, bad = compare_counts(want, got, COUNT_FIELDS[bench])
    else:
        print("no comparison defined for bench %r" % bench, file=sys.stderr)
        return 2
    print("\n".join(bad) or
          "%s deterministic fields match: %s" % (bench, ", ".join(fields)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
