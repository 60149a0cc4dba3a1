"""Layered end-to-end benchmark: four paper-shaped workloads, untraced
end-to-end metrics and a separately traced per-layer run.

See ``README.md`` in this directory.
"""
