# Developer entry points. The test suite expects the src layout on the
# import path; PYTHONPATH=src avoids requiring an editable install.
#
# The native traversal kernel (src/repro/native/kernel.c) is compiled with
# cffi and gcc on first import and cached in src/repro/native/_build/, so
# the first `make test` (or any first run) builds it; `make native`
# rebuilds it explicitly with warnings as errors.

PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: native test test-all bench-smoke bench-inference bench-training bench-unlearning bench-sharding bench-serving bench-online profile-unlearn profile-flush lint

## Rebuild the native kernel into its cache with -Wall -Wextra -Werror.
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

## Training-throughput benchmark (recursive vs frontier trainer);
## machine-readable results land in BENCH_training.json at the repo root.
bench-training:
	$(PYTHON) benchmarks/bench_training.py

## Batch-unlearning benchmark (scalar loop vs vectorised kernel);
## machine-readable results land in BENCH_unlearning.json at the repo root.
bench-unlearning:
	$(PYTHON) benchmarks/bench_unlearning.py

## cProfile the single-record unlearning fast path (2000-deletion
## campaign; prints top entries by cumulative and self time).
profile-unlearn:
	$(PYTHON) benchmarks/profile_unlearn.py

## cProfile the deferred-maintenance flush path (deletion campaign with
## periodic flushes; variant switches splice reserved spans in place).
profile-flush:
	$(PYTHON) benchmarks/profile_flush.py

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

## Online mixed-stream benchmark (deferred vs eager maintenance on an
## interleaved insert/delete/predict workload; deferred + flush == eager
## bit-identity and crash recovery asserted in-run before timing, the
## >= 2x deletion-throughput bar enforced); machine-readable results
## land in BENCH_online.json.
bench-online:
	$(PYTHON) benchmarks/bench_online.py

## Static sanity: byte-compile everything (no third-party linter is
## vendored in the image) and build the native kernel warning-free.
lint: native
	$(PYTHON) -m compileall -q src tests benchmarks
