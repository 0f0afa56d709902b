"""Collaborative filtering with a Renyi-divergence robust softmax loss
family, plus a brute-force certification suite for its dual reductions.

The package re-exports nothing: import the module you need (for example
`from drrl import trainer`); `import drrl.dataio` loads no other drrl
module. The version lives in `pyproject.toml`."""
