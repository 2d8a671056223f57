# Convenience entry points; everything works with plain pytest too.
PYTHON ?= python
# tools/ carries thermolint (a dev gate, not a runtime dep); exporting it
# here keeps every target — including coverage over both packages — on one
# consistent path, with src first so the in-repo package always wins.
export PYTHONPATH := src:tools:$(PYTHONPATH)

.PHONY: test bench fastpath-smoke fault-smoke fleet-smoke store-smoke service-smoke regen-golden reproduce lint lint-deep typecheck coverage check

test:            ## tier-1 test suite
	$(PYTHON) -m pytest -x -q

coverage:        ## tier-1 suite under coverage; floor from pyproject.toml
	$(PYTHON) -m pytest -q --cov=repro --cov=thermolint \
		--cov-report=term --cov-report=xml

check:           ## aggregate local gate: tests + lint + typecheck
	$(MAKE) test
	$(MAKE) lint
	$(MAKE) typecheck

lint:            ## thermolint shallow + deep (always) + ruff (when installed)
	$(PYTHON) -m repro lint src/repro --statistics
	$(PYTHON) -m repro lint tests tools --select TL003,TL004,TL005,TL006 --statistics
	$(MAKE) lint-deep
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools benchmarks; \
	else \
		echo "lint: ruff not installed; pycodestyle/pyflakes/isort groups skipped"; \
	fi

lint-deep:       ## project-wide determinism analysis (TL007-TL013, baseline)
	$(PYTHON) -m repro lint --deep --statistics

typecheck:       ## mypy strict gate (skipped when mypy is not installed)
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --config-file mypy.ini; \
	else \
		echo "typecheck: mypy not installed; skipped (config in mypy.ini)"; \
	fi

bench:           ## full paper benchmark harness (slow)
	PYTHONPATH=src:tools $(PYTHON) -m pytest benchmarks/ --benchmark-only

regen-golden:    ## regenerate tests/golden/*.json (refuses on a dirty tree)
	@if ! git diff --quiet || ! git diff --cached --quiet; then \
		echo "regen-golden: working tree is dirty; commit or stash first" >&2; \
		echo "  (goldens must regenerate from a known state so the fixture" >&2; \
		echo "   diff is attributable to exactly one committed model change)" >&2; \
		exit 1; \
	fi
	$(PYTHON) tools/regen_golden.py
	git --no-pager diff --stat -- tests/golden

fastpath-smoke:  ## fast-engine gate: differential suite, tolerance and 10x speed floor
	$(PYTHON) -m pytest tests/test_fastpath_differential.py \
		tests/test_statistics_percentiles.py -q

store-smoke:     ## result-store gate: second run of a sweep must be ~all hits
	$(PYTHON) -m pytest tests/test_store_smoke.py -q
	$(PYTHON) -m repro store verify --store-dir "$${REPRO_STORE_DIR:-$$HOME/.cache/repro}"

service-smoke:   ## job-service gate: serve boots, dedups, matches CLI bytes
	$(PYTHON) -m pytest tests/test_service.py tests/test_service_smoke.py -q
	$(PYTHON) tools/service_smoke.py \
		--store-dir "$${REPRO_SERVICE_STORE_DIR:-/tmp/repro-service-smoke}" \
		--out /tmp/repro_service_results.json \
		--fleet-out /tmp/repro_service_fleet.json \
		--metrics-out /tmp/repro_service_metrics.prom

fault-smoke:     ## crash-recovery gate: injected sweep survives a dead worker
	$(PYTHON) -m pytest tests/test_fault_smoke.py -q
	$(PYTHON) -m repro lint src/repro/faults --statistics

fleet-smoke:     ## fleet gate: property+golden suites, two-backend byte identity
	$(PYTHON) -m pytest tests/test_fleet.py tests/test_fleet_properties.py \
		tests/test_golden.py -q
	$(PYTHON) -m repro fleet --racks 2 --enclosures 3 --drives 2 \
		--recirculation 0.3 --tiering-extents 24 --inject-faults \
		--accesses 64 --backend serial \
		--results-out /tmp/repro_fleet_serial.json
# Two small racks cost less than a pool, so a plain process request runs
# in-process; a task timeout keeps the pool (the serial path cannot
# enforce one), and the grep fails if the pool did not run.
	$(PYTHON) -m repro fleet --racks 2 --enclosures 3 --drives 2 \
		--recirculation 0.3 --tiering-extents 24 --inject-faults \
		--accesses 64 --backend process -w 2 --task-timeout 600 \
		--results-out /tmp/repro_fleet_process.json > /tmp/repro_fleet_process.txt
	grep -x 'backend: process' /tmp/repro_fleet_process.txt
	cmp /tmp/repro_fleet_serial.json /tmp/repro_fleet_process.json
	$(PYTHON) -m repro lint src/repro/fleet --statistics

reproduce:       ## tests + benchmarks, tee'd to *_output.txt
	PYTHONPATH=src:tools $(PYTHON) reproduce.py
