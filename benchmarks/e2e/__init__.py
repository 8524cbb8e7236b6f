"""The repository's end-to-end benchmark (see ``README.md`` here).

Self-contained: nothing outside this directory imports it, and it
measures the system under ``src/`` from outside, through public calls.
"""
