"""Regenerate ``pins.json``, the pinned output digests of every op.

Usage (from the root of a checkout): ``python3 perfbench/make_pins.py``.

The pins are computed through paths other than the benchmark's ops, so
a pin is also a check of the program's own equivalence contracts:

* campaign-store: in-memory ``run_campaign`` with ``workers=1`` and no
  store, against the op's on-disk, pooled, interrupted-and-resumed run;
* stream-soak: ``run_stream`` with a different ``chunk_frames``;
* design-sweep: ``run_many`` on a process pool, against serial
  ``Engine.run``.

Only regenerate pins for a change that is meant to alter the program's
output; a speed-up must leave every pin as it is.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro  # noqa: E402
from repro.campaigns.runner import run_campaign  # noqa: E402
from repro.streams.runner import run_stream  # noqa: E402

import workloads  # noqa: E402

#: The seed used while building the benchmark, and one held out from it.
DEV_SEED = 1
HELDOUT_SEED = 12


def main() -> int:
    pins = {"dev_seed": DEV_SEED, "heldout_seed": HELDOUT_SEED,
            "campaign-store": {}, "stream-soak": {}, "design-sweep": {}}
    for size in workloads.SIZES:
        for variant in range(workloads.PIN_POOL):
            camp = workloads.build("campaign-store", variant, size, HERE)
            partial = run_campaign(camp.spec, max_shards=camp.half)
            final = run_campaign(camp.spec)
            pins["campaign-store"][f"{size}/{variant}"] = (
                f"{partial.digest()}+{final.digest()}")
            soak = workloads.build("stream-soak", variant, size, HERE)
            report = run_stream(soak.spec, chunk_frames=997)
            pins["stream-soak"][f"{size}/{variant}"] = report.digest()
    sweep = workloads.build("design-sweep", 0, "full", HERE)
    for spec, artifact in zip(sweep.specs,
                              repro.run_many(sweep.specs, workers=2)):
        pins["design-sweep"][spec.config_hash] = (
            workloads.artifact_digest(artifact))
    for table in ("campaign-store", "stream-soak", "design-sweep"):
        pins[table] = dict(sorted(pins[table].items()))
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
