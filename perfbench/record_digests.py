#!/usr/bin/env python3
"""Record the SHA-256 digests that benchmark runs compare their outputs with.

    python3 perfbench/record_digests.py FIRST_SEED STOP_SEED

Run it on the code whose outputs later runs must reproduce; it adds the
seeds in range(FIRST_SEED, STOP_SEED) to perfbench/digests.json.  For every
workload, seed, cover and method it stores the digest of the stego image as
``embed`` writes it, of the wide pvd raster before clamping, and of the
payload ``extract`` recovers, or the exit code ``extract`` gives instead.
It calls the library, not the CLI, so every benchmark run also checks that
the two agree.
"""

import json
import sys

import run

EXIT_IO = 3  # extract's exit code for a malformed stego stream


def outputs(lib, inp) -> dict:
    codec, imagery, pvd = lib.codec, lib.imagery, lib.pvd
    table = codec.build_range_table()

    def extract(extractor, stego: bytes) -> dict:
        try:
            return {"exit": 0, "recovered": run.sha256(extractor(imagery.load_pgm(stego)))}
        except codec.PayloadError:
            return {"exit": EXIT_IO}

    apvd_stego = imagery.save_pgm(lib.apvd.apvd_embed_image(inp.image, inp.payload, table).stego)
    wide = pvd.pvd_embed_image(inp.image, codec.frame_payload(inp.payload), table).stego
    pvd_stego = imagery.save_pgm(
        imagery.GrayImage(inp.image.width, inp.image.height, pvd.clamp_raster(wide)))
    return {
        "apvd": {"stego": run.sha256(apvd_stego),
                 **extract(lambda img: lib.apvd.apvd_extract_image(img, table), apvd_stego)},
        "pvd": {"stego": run.sha256(pvd_stego), "raster": run.raster_digest(wide),
                **extract(lambda img: codec.deframe_payload(pvd.pvd_extract_image(img.pixels, table)),
                          pvd_stego)},
    }


def main(argv) -> int:
    first, stop = int(argv[0]), int(argv[1])
    lib = run.import_package()
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    if table.get("size") != run.SIZE:  # digests of another cover size never match
        table = {"size": run.SIZE, "digests": {}}
    for workload in run.WORKLOADS:
        for seed in range(first, stop):
            table["digests"].setdefault(workload, {})[str(seed)] = {
                inp.kind: outputs(lib, inp) for inp in run.make_inputs(workload, seed, table["size"])}
            print(f"{workload} seed {seed} recorded", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
