"""``python -m repro`` — the ``sequence-rtg`` command line."""

from repro.cli import main

# guarded: spawned pool workers import the main module as __mp_main__
if __name__ == "__main__":
    raise SystemExit(main())
