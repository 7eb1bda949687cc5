GO ?= go

.PHONY: all build vet check-once bench-kernels test test-race test-resume test-serve test-obs test-obs-cluster test-chaos test-cluster test-index test-shard test-fuzz test-bench lint ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every suite line that names tests (-run, -fuzz) goes through named-test:
# go test exits 0 when a pattern matches nothing, so a renamed test would
# silently leave its suite.
named-test = @out=$$($(GO) test $(1) 2>&1); st=$$?; echo "$$out"; \
	if [ $$st -ne 0 ]; then exit $$st; fi; \
	if echo "$$out" | grep -qE 'no tests to run|no fuzz tests to fuzz'; then \
		echo "named-test: a pattern matched nothing: go test $(1)"; exit 1; fi

# Declared-once guard (shell only): the job contract and the worker
# client each exist once, and this keeps the copies from growing back.
# Fails if the job-parameter JSON tags are declared in more than one
# non-test Go file outside bench/ (core.JobSpec is the one), if a deleted
# copy reappears under its old name, or if internal/cluster grows a timed
# select beside Coordinator.wait (6 Clock.After sites remain: wait,
# doRequestTimeout, sweeper, and three in replication.go).
# The poll loops stay deleted: no PollInterval / -poll-interval in any Go
# file outside bench/, and the worker's blocking status read (?wait=) is
# parsed in exactly one place.
# The same for the extension path in internal/core: one anchor extender
# (one NewExtender, one runShard(StageExtension, one AnchorBegin /
# ExtensionTile site, AnchorEnd at most twice in it), one footprint
# computation, and no second copy of the commit or the canonical order
# under their old names.
# The shard plane extends a strand once, behind the real absorber: the
# frame merge (MergeShardFrames, ShardFrame) and the absorber-free unit
# extension (AlignShardUnit) stay deleted from every non-test file.
# And for the GACT-X tile kernel: XDropAligner is declared in one non-test
# file (replaced, not forked), and what the rewrite deleted — the per-row
# direction slices, the per-row closures, the saturating subtract — stays
# out of every non-test file of internal/align.
# And for the reproduction layer: one GACT-X cycle model fed by the tiles
# that ran (the averaged-shape estimate stays deleted from every Go file),
# one hardware-model package (internal/systolic is folded into
# internal/hw), and one HSP-to-chain-block conversion (chain.BuildHSPs).
# And for what a job owns: one artifact store removes files
# (internal/server/artifacts.go is the only non-test file of
# internal/server and internal/cluster that calls os.Remove/os.RemoveAll),
# one function decides which jobs leave (every evictLocked calls
# RetainWindow and counts nothing itself), and the deleted /varz's
# renderer (WriteJSON) stays out of internal/obs.
# And for placement: computed per call (rendezvous order over the live
# holders), not maintained — no ring, virtual nodes or member clone, the
# replica cap a constant rather than Config.ReplicationFactor /
# -replication — and the other deleted knobs stay deleted
# (obs.TraceIdentifier, Server.ListenAndServe, a RetryAfter field). Every
# role serves on the one http.Server literal in server.NewHTTPServer.
# And for timers: derived, not configured — the coordinator's from
# LeaseTTL, the worker's from StallWindow — so the knobs they replaced
# (fields and serve/one-shot flags) stay out of every non-test Go file
# outside bench/.
# And for the pipeline layer: both tile kernels score coded tiles (no
# Scoring.Score call in banded.go or xdrop.go), both filters return
# align.FilterResult (UngappedResult stays deleted), the kernels' dead
# outputs and helpers (MaxRowWidth, max2/max3, D-SOFT's emit map) stay
# out, seeding and PlanShards cut on the one span rule (shardSpan, not
# the old "/chunk + 1) * chunk"), and pipeline.go holds at most one
# sync.WaitGroup (run.fanOut is the fan-out).
# And for the BSW filter kernel: BandedAligner is declared in one non-test
# file of internal/align (rewritten in place, not forked), banded.go keeps
# no []int32 DP rows (the rows are (V, D) cells), and no second Align body
# survives: BandedAligner has its two methods (Align, FilterTile) and no
# non-test function of internal/align is an old, seed or fallback copy.
# And for the seed index: Index is declared once in internal/seed (one
# rank-addressed layout, no dense fallback beside it), and no non-test
# file there allocates a table of TableSize()+1 entries (the deleted
# dense bucket-start table).
check-once:
	@n=$$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'json:"max_filter_tiles' . | wc -l); \
	if [ "$$n" -ne 1 ]; then echo "check-once: job-parameter JSON tags declared in $$n non-test files, want 1 (core.JobSpec)"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude-dir=bench 'func cWriteJSON|type (clusterSubmit|workerSubmit|jobSpec) ' .; then \
		echo "check-once: a deleted copy of the job contract is back"; exit 1; fi
	@n=$$(ls internal/cluster/*.go | grep -v _test.go | xargs cat | grep -o 'Clock\.After(' | wc -l); \
	if [ "$$n" -gt 6 ]; then echo "check-once: $$n Clock.After sites in internal/cluster, want <= 6 (use Coordinator.wait)"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude-dir=bench 'PollInterval|poll-interval|pollEvery' .; then \
		echo "check-once: the coordinator's status poll is back (a job ends when its worker says so: hold GET ?wait=)"; exit 1; fi
	@n=$$(ls internal/server/*.go | grep -v _test.go | xargs cat | grep -c 'Query().Get("wait")'); \
	if [ "$$n" -ne 1 ]; then echo "check-once: ?wait= parsed on $$n non-test lines of internal/server, want 1 (handleStatus)"; exit 1; fi
	@src=$$(ls internal/core/*.go | grep -v _test.go); \
	for pat in '\.AnchorBegin(' '\.ExtensionTile(' 'gact\.NewExtender(' 'runShard(StageExtension' 'pathDiagRange('; do \
		n=$$(cat $$src | grep -v '^func ' | grep -c "$$pat"); \
		if [ "$$n" -ne 1 ]; then echo "check-once: $$pat on $$n lines of internal/core, want 1 (anchorExtender)"; exit 1; fi; \
	done; \
	n=$$(cat $$src | grep -c '\.AnchorEnd('); \
	if [ "$$n" -gt 2 ]; then echo "check-once: .AnchorEnd( on $$n lines of internal/core, want <= 2 (anchorExtender.extend)"; exit 1; fi; \
	if grep -nE 'func (replayAnchor|sortFrameIndex)' $$src; then \
		echo "check-once: a deleted copy of the commit or the canonical order is back"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'MergeShardFrames|type ShardFrame |AlignShardUnit' .; then \
		echo "check-once: the frame merge or the un-absorbed unit extension is back (a strand is extended once: core.ExtendAnchors)"; exit 1; fi
	@src=$$(ls internal/align/*.go | grep -v _test.go); \
	n=$$(grep -l 'type XDropAligner ' $$src | wc -l); \
	if [ "$$n" -ne 1 ] || grep -nE 'saturSub|rowDirs +\[\]\[\]byte|\.rowDirs|prevV :=|prevD :=' $$src; then \
		echo "check-once: want one X-drop kernel (XDropAligner declared in $$n files) without per-row slices, closures or saturSub"; exit 1; fi
	@if grep -rnE --include='*.go' 'GACTXTileCyclesFromCells|avgExtensionShape' .; then \
		echo "check-once: the averaged GACT-X estimate is back (price extension with hw.GACTXReplay)"; exit 1; fi
	@if [ -e internal/systolic ]; then echo "check-once: internal/systolic exists (the cycle model lives in internal/hw)"; exit 1; fi
	@n=$$(grep -rlF --include='*.go' --exclude='*_test.go' --exclude-dir=bench '&chain.Block{' . | wc -l); \
	if [ "$$n" -gt 1 ]; then echo "check-once: &chain.Block{ in $$n non-test files, want <= 1 (chain.BuildHSPs)"; exit 1; fi
	@if grep -nE --exclude='*_test.go' --exclude=artifacts.go 'os\.(Remove|RemoveAll)\(' internal/server/*.go internal/cluster/*.go; then \
		echo "check-once: a job artifact is removed outside the artifact store (use server.Artifacts)"; exit 1; fi
	@for f in $$(grep -lE --exclude='*_test.go' '^func \(.*\) evictLocked\(' internal/server/*.go internal/cluster/*.go); do \
		body=$$(sed -n '/^func (.*) evictLocked(/,/^}/p' $$f); \
		if ! echo "$$body" | grep -q 'RetainWindow(' || echo "$$body" | grep -qE '\+\+|--|Terminal\(\) *\{'; then \
			echo "check-once: evictLocked in $$f decides retention itself (call RetainWindow)"; exit 1; fi; \
	done
	@if grep -rn 'WriteJSON' internal/obs; then \
		echo "check-once: the deleted /varz's JSON renderer is back in internal/obs"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
		'buildRing|type ring |defaultVirtualNodes|func \(m \*Member\) clone|ReplicationFactor|"replication"|TraceIdentifier|^\s*RetryAfter\s' . || \
		grep -nE --exclude='*_test.go' 'ListenAndServe' internal/server/*.go; then \
		echo "check-once: placement is maintained again (ring, member clone, replica-cap knob) or a deleted knob is back"; exit 1; fi
	@n=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench '&http\.Server{' . | wc -l); \
	m=$$(sed -n '/^func NewHTTPServer(/,/^}/p' internal/server/server.go | grep -c '&http\.Server{'); \
	if [ "$$n" -ne 1 ] || [ "$$m" -ne 1 ]; then \
		echo "check-once: $$n http.Server literals, want 1 (server.NewHTTPServer serves every role)"; exit 1; fi
	@if grep -rnwE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
		'SweepInterval|DispatchTimeout|StallTick|StallRetries|StallRetryDelay|ShipInterval|PromoteAfter' . || \
		grep -nw --exclude='*_test.go' 'RequestTimeout' internal/cluster/*.go || \
		grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
		'dispatch-timeout|stall-retries|stall-retry-delay|breaker-threshold|breaker-cooldown|ship-interval|retry-delay|retry-max-delay' .; then \
		echo "check-once: a removed timer knob is back (derive it from LeaseTTL or StallWindow, or make it a constant)"; exit 1; fi
	@if grep -n 'Score(' internal/align/banded.go internal/align/xdrop.go; then \
		echo "check-once: a tile kernel scores bytes (score the coded tile against the aligner's subRows)"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude-dir=bench 'type UngappedResult|MaxRowWidth|func max[23]\(' . || \
		grep -rnE 'emit +map\[|emit: *make\(' internal/dsoft || \
		grep -rnF --include='*.go' --exclude-dir=bench '/chunk + 1) * chunk' .; then \
		echo "check-once: a deleted pipeline output, helper or span rule is back (FilterResult, builtin max, shardSpan)"; exit 1; fi
	@n=$$(grep -c 'sync\.WaitGroup' internal/core/pipeline.go); \
	if [ "$$n" -gt 1 ]; then echo "check-once: $$n sync.WaitGroup in internal/core/pipeline.go, want <= 1 (run.fanOut)"; exit 1; fi
	@src=$$(ls internal/align/*.go | grep -v _test.go); \
	n=$$(grep -l 'type BandedAligner ' $$src | wc -l); \
	m=$$(cat $$src | grep -cE '^func \(\w+ \*?BandedAligner\) '); \
	if [ "$$n" -ne 1 ] || [ "$$m" -ne 2 ] || \
		grep -nE '\[\]int32|\b(vPrev|dPrev|vCur|dCur)\b' internal/align/banded.go || \
		grep -nE '^func (\([^)]*\) )?(\w*(Old|Seed|Legacy|Slow|Fallback)|(old|seed|legacy|slow|fallback)[A-Z])\w*\(' $$src; then \
		echo "check-once: want one BSW kernel (BandedAligner declared in $$n files with $$m methods, want 1 and 2: Align, FilterTile) on (V, D) cell rows, no []int32 rows, no second Align body"; exit 1; fi
	@src=$$(ls internal/seed/*.go | grep -v _test.go); \
	n=$$(cat $$src | grep -c '^type Index struct'); \
	if [ "$$n" -ne 1 ] || grep -nE 'make\([^)]*(\bsize|TableSize\(\)) *\+ *1\b' $$src; then \
		echo "check-once: want one seed index layout (type Index struct declared $$n times, want 1) and no 4^Weight+1-entry table"; exit 1; fi

test:
	$(GO) test ./...

# The robustness suite (cancellation, budgets, fault-injected panics in
# worker goroutines) is only meaningful under the race detector. -short
# skips the end-to-end experiment renders, which the race detector
# slows by an order of magnitude; the pipeline's race coverage comes
# from the internal/core robustness suite, which always runs.
test-race:
	$(GO) test -race -short -timeout 30m ./...

# Durability suite: the subprocess crash–resume e2e (SIGKILL mid
# journal write, resume, byte-compare the MAF), the journal
# truncation/corruption sweeps, and the in-process resume/retry tests.
# Not -short: the e2e re-execs the test binary as the CLI.
test-resume:
	$(call named-test,-timeout 15m -run 'TestCrashResume|TestRetry' ./cmd/darwin-wga/)
	$(GO) test -timeout 15m ./internal/checkpoint/
	$(call named-test,-timeout 15m -run 'TestResume|TestRetry|TestFailureAggregation|TestCompatCheckpoint' ./internal/core/)

# Serving suite: the in-process HTTP job-server lifecycle tests under
# the race detector (shared-aligner concurrency, admission control,
# mid-run cancellation, drain), plus the subprocess `darwin-wga serve`
# e2e — two registered targets, eight concurrent jobs with streamed
# MAF byte-compared against one-shot CLI runs, queue saturation into
# 429s, and a SIGTERM drain. Not -short: the e2e re-execs the test
# binary as the server.
test-serve:
	$(GO) test -race -timeout 15m ./internal/server/
	$(call named-test,-timeout 15m -run 'TestRetainWindow|TestEstimateJobBytesBracketsMeasuredPeak|TestJobStoreBoundedWhileRunning' ./internal/server/)
	$(call named-test,-timeout 15m -run TestServeE2E ./cmd/darwin-wga/)

# Observability suite: the metrics registry / tracer unit tests under
# the race detector, the trace-vs-Workload exactness and zero-alloc
# recorder guards, the /metrics + pprof HTTP tests, and the
# subprocess `serve -pprof -log-format json` e2e that scrapes /metrics
# and /debug/pprof/heap. Not -short: the e2e re-execs the test binary
# as the server.
test-obs:
	$(GO) test -race -timeout 10m ./internal/obs/
	$(call named-test,-timeout 15m -run 'TestTraceCoversWorkload|TestPipelineMetricsMatchWorkload|TestRecorderAllocOverheadConstant' ./internal/core/)
	$(call named-test,-timeout 10m -run 'TestTileHook' ./internal/gact/)
	$(call named-test,-timeout 15m -run 'TestMetricsEndpoint|TestJobStatsBlock|TestPprofGating' ./internal/server/)
	$(call named-test,-timeout 15m -run 'TestTraceAndProfileFlagsE2E|TestServeObservabilityE2E' ./cmd/darwin-wga/)

# Cluster observability suite: the flight-recorder ring / capped-tracer
# / federation-snapshot unit tests with the zero-alloc disabled-path
# guards, the worker-side trace + flight-record endpoints and the
# Prometheus text-format lint over a fully instrumented server, the
# coordinator-side merged-trace-across-failover, fleet-federation,
# replication-lag, and ship-lag tests on a manual clock, and the
# subprocess failover e2e that SIGKILLs a worker mid-job and requires
# the merged trace to span both workers under one trace id. All under
# the race detector where processes are in-process; every line carries
# an explicit -timeout.
test-obs-cluster:
	$(GO) test -race -timeout 10m ./internal/obs/
	$(call named-test,-race -timeout 15m -run 'TestJobTrace|TestJobEvents|TestLatencyHistograms|TestMetricsPrometheusLint' ./internal/server/)
	$(call named-test,-race -timeout 15m -run 'TestClusterTraceMergeAcrossFailover|TestClusterMetricsFederation|TestReplicationHubFollowerLags|TestStandbyReplicationLagMetrics|TestShipLagMetric' ./internal/cluster/)
	$(call named-test,-timeout 20m -run 'TestClusterFailoverE2E|TestHALeaderFailoverE2E' ./cmd/darwin-wga/)

# Chaos suite: crash-only serving under the race detector — the
# durable job store (journal round-trip, torn tails, restart recovery
# with byte-identical MAF), the stuck-job watchdog on a manual clock
# (stall → cancel → retry, exhausted retries tripping the breaker),
# the circuit-breaker state machine, and overload hardening (memory
# watermarks, slowloris header timeout, body caps), both lifecycle
# journals staying bounded while the process runs, and a standby that
# misses a leader's rewrite resyncing exactly, without ever giving up the
# journal it holds before the new one is complete. Then the subprocess
# crash–restart e2e: SIGKILL `serve` mid-job, restart on the same
# journal/checkpoint dirs, and require the recovered job's MAF
# byte-identical to an uninterrupted run; and a standby coordinator
# closing a connection whose headers never finish.
test-chaos:
	$(call named-test,-race -timeout 20m -run 'TestJobStore|TestRestart|TestWatchdog|TestBreaker|TestMemoryAdmission|TestSlowloris|TestBodyCap' ./internal/server/)
	$(call named-test,-race -timeout 15m -run 'TestShardArtifactStoreENOSPC|TestRetentionBounds|TestHAStandbyResyncs|TestHAStandbyKeepsJournal' ./internal/cluster/)
	$(call named-test,-timeout 15m -run 'TestServeCrashRestartRecoversJob|TestStandbySlowlorisHeaderTimeoutE2E' ./cmd/darwin-wga/)

# Cluster suite: the coordinator/worker topology under the race
# detector — rendezvous placement properties, lease membership on a
# manual clock (heartbeats racing placement readers), per-worker circuit breakers, the routing WAL
# round-trip, and the ManualClock + flaky-transport chaos tests
# (lease-expiry failover, retry exhaustion opening a breaker then
# parking, partition failover, all-replicas-down degradation,
# coordinator restart reattach) plus the faultinject seam's own
# determinism tests, and the warm-standby HA chaos tests (journal
# shipping, fenced promotion, snapshot compaction, shipped-segment
# failover). Then the subprocess failover e2e: SIGKILL a worker
# mid-job and later the coordinator itself; both recovered MAFs must
# be byte-identical to a one-shot run. The HA e2e additionally
# SIGKILLs a leader with a live warm standby (promotion must finish
# the job under its original id) and a shipping worker mid-pipeline
# (the replacement must resume from the shipped checkpoints with a
# nonzero replayed workload); and a coordinator on port 0 must hand its
# workers a checkpoint-ship URL that answers. Not -short: the e2e re-execs the test
# binary as coordinator, standby, and workers. Every line carries an
# explicit -timeout so a wedged subprocess can never hang the target.
test-cluster:
	$(GO) test -race -timeout 15m ./internal/cluster/ ./internal/faultinject/
	$(call named-test,-race -timeout 15m -run 'TestRingOrder|TestRendezvous|TestMembership|TestRetentionBounds|TestHAStandby' ./internal/cluster/)
	$(call named-test,-timeout 20m -run 'TestClusterFailoverE2E|TestHALeaderFailoverE2E|TestHAWorkerFailoverResumesFromShippedE2E|TestCoordinatorHonoursRetainE2E|TestCoordinatorPortZeroShipURLE2E' ./cmd/darwin-wga/)

# Index lifecycle suite: the serialized-index store under the race
# detector (format round-trip, corruption rejection typed-error tests,
# the checked-in golden fixture), the capacity-accounted index memory
# estimator, and the server-side lifecycle — LRU eviction against the
# index budget, pinning, transparent reload, serialized-index startup
# loads, and the fingerprint-keyed result cache (repeat submissions
# served byte-identical with "cached": true). Then the subprocess e2e:
# `index build` two targets, `serve -index-dir` must load (not rebuild)
# them, a repeated submission must be a cache hit, a 1 MiB budget must
# force eviction, and the evicted target must reload from its file.
test-index:
	$(GO) test -race -timeout 10m ./internal/indexstore/
	$(call named-test,-race -timeout 10m -run 'TestMemoryBytes' ./internal/seed/)
	$(call named-test,-race -timeout 15m -run 'TestIndex|TestResultCache|TestTargetsExpose' ./internal/server/)
	$(call named-test,-timeout 15m -run 'TestIndexLifecycleE2E' ./cmd/darwin-wga/)

# Shard scatter/gather suite: the core two-phase property tests (for any
# unit count, arrival order and hedged duplicate, the filter units'
# anchors are the one-shot survivors and the strand extension over them
# is the one-shot HSP stream, to the cell) plus a fuzz smoke of the same
# path's partition/permutation invariance, the worker's POST /v1/shards
# driven through both phases against the one-shot MAF, the in-process
# chaos tests of the coordinator's shard plane under the race detector
# (worker-death failover, hedged stragglers judged against their own
# kind, retry-exhaustion partial results, truncated-body retries,
# journal restart re-dispatching only unfinished units and refusing
# foreign spills, ENOSPC 503s from the artifact store), and the
# subprocess e2e pair: SIGKILL one of two workers mid-job under
# -shard-dispatch (byte-identical MAF, recovery metrics), and a
# fault-injected worker exhausting one unit's retries into a 206
# partial result. Not -short: the e2e re-execs the test binary as
# coordinator and workers. Every line carries an explicit -timeout.
test-shard:
	$(call named-test,-race -timeout 15m -run 'TestPlanShards|TestAlignShardUnit|TestFilterShardUnit|TestShardMergeMatchesOneShot|TestShardUnitsReportToRecorder|TestFrontEndSharedByAllEntryPoints' ./internal/core/)
	$(call named-test,-run '^$$' -fuzz FuzzShardMerge -fuzztime 10s ./internal/core/)
	$(call named-test,-race -timeout 15m -run 'TestShardUnitsTwoPhaseMatchOneShot' ./internal/server/)
	$(call named-test,-race -timeout 15m -run 'TestShard' ./internal/cluster/)
	$(call named-test,-timeout 20m -run 'TestShardDispatchFailoverE2E|TestShardPartialResultE2E' ./cmd/darwin-wga/)

# Kernel benchmarks at their own layer: DP cells/s of the BSW filter tile
# (320x320, band 32; noise and homologous) and the GACT-X tile, and the
# seed index's build (bp/s) and lookup (ns/lookup, through TransitionKeys
# as D-SOFT does) on random 55 kbp, 1.8 Mbp and 16 Mbp targets; fixed
# seeds, five runs each. Compare revisions by building each side with
# `go test -c` and alternating the binaries on one box.
bench-kernels:
	$(GO) test -run '^$$' -bench 'BandedTile|XDropTile' -count 5 ./internal/align
	$(GO) test -run '^$$' -bench 'IndexBuild|IndexLookup' -count 5 ./internal/seed

# Benchmark self-tests: bench/ is a module of its own (it imports
# internal/... through a replace directive), so `go test ./...` never
# builds it and a signature change in internal/core, internal/server or
# internal/cluster would break it unnoticed. This builds it against the
# tree and runs its toy-scale self-tests. The benchmark itself is
# `bash bench/run.sh` (see BENCHMARK.json).
test-bench:
	$(GO) test -C bench -timeout 10m ./...

# Static analysis and vulnerability scan. Both tools are optional: the
# build must work on machines (and CI runners) that do not have them,
# and nothing is ever downloaded or installed here — a missing tool is
# reported and skipped.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed; skipping"; fi

# Fuzz smoke: ten seconds per parser on the four crash-recovery
# attack surfaces — FASTA queries (the spill the job store replays),
# MAF streams (the recovered artifacts), WAL segments (arbitrary torn
# tails must recover and stay appendable) and serialized indexes — and
# ten per kernel differential (BSW vs masked Smith-Waterman; X-drop vs
# the prefix maximum, unbounded and with a drop threshold that prunes;
# the X-drop kernel vs the frozen seed kernel in xdrop_seed_test.go).
# Corpus misses fail the build; longer runs are
# `go test -fuzz=<name> -fuzztime=10m`.
test-fuzz:
	$(call named-test,-run '^$$' -fuzz FuzzReadFASTA -fuzztime 10s ./internal/genome/)
	$(call named-test,-run '^$$' -fuzz FuzzReadMAF -fuzztime 10s ./internal/maf/)
	$(call named-test,-run '^$$' -fuzz FuzzWALRecover -fuzztime 10s ./internal/checkpoint/)
	$(call named-test,-run '^$$' -fuzz FuzzIndexLoad -fuzztime 10s ./internal/indexstore/)
	$(call named-test,-run '^$$' -fuzz FuzzBandedVsMaskedSW -fuzztime 10s ./internal/align/)
	$(call named-test,-run '^$$' -fuzz FuzzXDropUnboundedVsPrefixMax -fuzztime 10s ./internal/align/)
	$(call named-test,-run '^$$' -fuzz FuzzXDropBoundedVsPrefixMax -fuzztime 10s ./internal/align/)
	$(call named-test,-run '^$$' -fuzz FuzzXDropVsSeedKernel -fuzztime 10s ./internal/align/)

ci: build vet check-once test test-race test-resume test-serve test-obs test-obs-cluster test-chaos test-cluster test-index test-shard test-fuzz test-bench
