# Developer entry points. The test suite expects the src layout on the
# import path; PYTHONPATH=src avoids requiring an editable install.
#
# The native kernels (src/repro/native/kernel.c and write.c) are compiled
# with cffi and gcc on first import and cached in src/repro/native/_build/,
# so the first `make test` (or any first run) builds them; `make native`
# rebuilds them explicitly with warnings as errors.

PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: native test test-all bench-smoke bench-inference bench-sharding bench-serving lint

## Rebuild the native kernels into their cache with -Wall -Wextra -Werror.
native:
	$(PYTHON) src/repro/native/build.py --werror

## Run the fast unit/property/integration suite (slow-marked tests are
## excluded via addopts in pyproject.toml). Builds the native kernel on
## first use.
test:
	$(PYTHON) -m pytest tests/ -q

## Run everything, including the slow full-registry equivalence matrix.
test-all:
	$(PYTHON) -m pytest tests/ -q -m "slow or not slow"

## One fast pass over every paper benchmark; formatted tables land in
## benchmarks/results.txt.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --benchmark-disable-gc -q

## Packed-inference benchmark; machine-readable results land in
## BENCH_inference.json at the repo root.
bench-inference:
	$(PYTHON) benchmarks/bench_inference.py

## SISA sharding benchmark (deletion throughput and predict latency at
## K in {1,2,4,8}, K=1 bit-identity and the K=4 >= 2x scaling bar asserted
## in-run); machine-readable results land in BENCH_sharding.json.
bench-sharding:
	$(PYTHON) benchmarks/bench_sharding.py

## Shared-memory serving benchmark (reader-fleet aggregate throughput vs
## the in-process packed kernel, bit-identity asserted before/after a
## 256-deletion campaign, core-scaled throughput bar enforced in-run);
## machine-readable results land in BENCH_serving.json.
bench-serving:
	$(PYTHON) benchmarks/bench_serving.py

## Static sanity: byte-compile everything (no third-party linter is
## vendored in the image) and build the native kernel warning-free.
lint: native
	$(PYTHON) -m compileall -q src tests benchmarks
