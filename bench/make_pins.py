"""Write bench/pins.json: digests of serialize_element((ab)c) for every
affine triple at the default seed.

    python3 bench/make_pins.py

The pins record the products of the program as it was when they were
written.  Regenerate them only when the job generator in workloads.py
changes the inputs, never to make a failing check pass.
"""

import json

import run

run.load_library()
import workloads  # noqa: E402  (needs the library path set up by run)

pins = workloads.affine_pins(workloads.DEFAULT_SEED, workloads.SIZES["full"])
workloads.PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True)
                               + "\n")
print("wrote %d pins to %s" % (len(pins), workloads.PINS_FILE))
