#!/usr/bin/env python3
"""Validate a GALS Chrome trace-event export (docs/observability.md).

Checks that the file the tracer wrote under ``GALS_TRACE`` is what a
trace viewer (Perfetto, chrome://tracing) and the CI acceptance gate
expect:

 - it parses as one JSON object with the ``gals-trace-v1`` schema
   marker and a ``traceEvents`` array;
 - every event carries the required keys for its phase (``M``
   metadata, ``X`` complete spans with ``dur``, ``i`` instants);
 - timestamps are nondecreasing per (pid, tid) track in file order —
   the exported mirror of the tracer's publication-order assert;
 - with ``--cores N``: the first process exposes all ``N * 4``
   per-(core, domain) tracks;
 - each ``--require-event NAME`` occurs at least once (the CI run
   requires ``coh_invalidate`` and ``reconfig``).

Exit status 0 on success, 1 with a message on the first failure.
"""

import argparse
import collections
import json
import sys


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="trace JSON file to validate")
    ap.add_argument("--cores", type=int, default=0,
                    help="expect N*4 domain tracks in the first "
                         "process")
    ap.add_argument("--require-event", action="append", default=[],
                    metavar="NAME",
                    help="require >=1 occurrence of this event name "
                         "(repeatable)")
    args = ap.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load '{args.trace}': {e}")

    if not isinstance(doc, dict):
        fail("top level is not a JSON object")
    schema = doc.get("otherData", {}).get("schema")
    if schema != "gals-trace-v1":
        fail(f"schema is {schema!r}, want 'gals-trace-v1'")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents is missing or empty")

    # Per-event shape + per-track monotonicity, in file order.
    last_ts = {}
    track_names = collections.defaultdict(dict)  # pid -> tid -> name
    name_counts = collections.Counter()
    for i, e in enumerate(events):
        for key in ("ph", "pid", "tid", "name"):
            if key not in e:
                fail(f"event {i} lacks '{key}': {e}")
        ph = e["ph"]
        if ph == "M":
            if e["name"] in ("process_name", "thread_name"):
                if "name" not in e.get("args", {}):
                    fail(f"metadata event {i} lacks args.name")
                if e["name"] == "thread_name":
                    track_names[e["pid"]][e["tid"]] = \
                        e["args"]["name"]
            continue
        if ph not in ("X", "i"):
            fail(f"event {i} has unknown phase {ph!r}")
        if "ts" not in e:
            fail(f"event {i} lacks 'ts'")
        if ph == "X" and "dur" not in e:
            fail(f"span event {i} lacks 'dur'")
        name_counts[e["name"]] += 1
        track = (e["pid"], e["tid"])
        if e["ts"] < last_ts.get(track, float("-inf")):
            fail(f"event {i} ({e['name']}) breaks per-track ts "
                 f"monotonicity on pid={track[0]} tid={track[1]}: "
                 f"{e['ts']} after {last_ts[track]}")
        last_ts[track] = e["ts"]

    if args.cores > 0:
        if not track_names:
            fail("no named tracks found")
        tracks = set(track_names[min(track_names)].values())
        for c in range(args.cores):
            for dom in ("fe", "int", "fp", "ls"):
                want = f"core{c}/{dom}"
                if want not in tracks:
                    fail(f"first process lacks track '{want}' "
                         f"(has {sorted(tracks)})")

    for name in args.require_event:
        if name_counts[name] < 1:
            fail(f"required event '{name}' never occurs "
                 f"(names seen: {sorted(name_counts)})")

    ntracks = sum(len(t) for t in track_names.values())
    print(f"check_trace: OK: {len(events)} events, {ntracks} named "
          f"tracks, {len(name_counts)} event kinds")


if __name__ == "__main__":
    main()
