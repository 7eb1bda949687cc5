// Command darwin-wga aligns a query genome against a target genome with
// the Darwin-WGA pipeline (D-SOFT seeding, gapped Banded-Smith-Waterman
// filtering, GACT-X extension) and writes MAF plus a chain summary.
//
// Usage:
//
//	darwin-wga -target target.fa -query query.fa [-out out.maf] [flags]
//	darwin-wga -pair ce11-cb4 -scale 0.004 [-out out.maf] [flags]
//	darwin-wga serve -register dm6=dm6.fa [-addr host:port] [flags]
//	darwin-wga index build -target dm6.fa -out idx/dm6.dwx [flags]
//	darwin-wga index inspect|verify -in idx/dm6.dwx [flags]
//	darwin-wga version
//
// The second form synthesizes one of the paper's evaluation species
// pairs instead of reading FASTA files. The serve subcommand runs the
// alignment job server (see internal/server): targets are indexed once
// at startup, jobs are submitted over an HTTP JSON API, and each job's
// MAF is chunk-streamed as it is computed. SIGINT/SIGTERM drain the
// server gracefully.
//
// A one-shot run can be bounded with -timeout (soft wall-clock budget)
// or interrupted with SIGINT/SIGTERM; in both cases the partial
// alignments computed so far are still written, and the summary is
// tagged (truncated).
//
// With -checkpoint <dir> the pipeline journals its progress to a
// crash-safe write-ahead log in <dir>; a killed run rerun with the same
// flags resumes from the journal and produces byte-identical output.
// -retries (with -retry-delay/-retry-max-delay backoff) re-runs failed
// pipeline shards before degrading to a partial result. The final MAF
// is written atomically: to <out>.tmp first, fsynced, then renamed over
// <out>, so an existing output file is never left half-overwritten.
//
// Telemetry: -trace out.json records the run's span tree (strands,
// stages, per-tile work) as Chrome trace_event JSON for Perfetto;
// -cpuprofile/-memprofile write pprof profiles. The serve subcommand
// exposes a Prometheus registry at /metrics, takes -log-format
// text|json for structured slog output, and mounts net/http/pprof
// under /debug/pprof/ with -pprof.
//
// Exit status: 0 on success, 1 on a runtime error (including an
// interrupted one-shot run), 2 on a usage error (bad flag or unknown
// subcommand).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"darwinwga"
	"darwinwga/internal/checkpoint"
	"darwinwga/internal/cluster"
	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/obs"
	"darwinwga/internal/stats"
)

// options collects every flag so run stays testable without a real
// command line.
type options struct {
	targetPath, queryPath string
	pairName              string
	scale                 float64
	outPath               string
	ungapped              bool
	hf, he                int32
	workers               int
	oneStrand             bool
	topChains             int
	timeout               time.Duration
	checkpointDir         string
	retries               int
	retryDelay            time.Duration
	retryMaxDelay         time.Duration
	tracePath             string
	cpuProfile            string
	memProfile            string
}

func main() {
	os.Exit(cliMain(os.Args[1:]))
}

// cliMain dispatches subcommands and maps outcomes onto exit codes:
// 0 success, 1 runtime error, 2 usage error. It is the testable
// entry point — main only adds os.Exit.
func cliMain(args []string) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "serve":
			return serveMain(args[1:])
		case "index":
			return indexMain(args[1:])
		case "version":
			printVersion(os.Stdout)
			return 0
		case "align":
			// Explicit spelling of the default one-shot mode.
			return alignMain(args[1:])
		default:
			fmt.Fprintf(os.Stderr, "darwin-wga: unknown command %q (want align, index, serve, or version)\n", args[0])
			return 2
		}
	}
	return alignMain(args)
}

// printVersion reports the module version (when built with module
// metadata), the Go toolchain, and the platform.
func printVersion(w io.Writer) {
	version := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	fmt.Fprintf(w, "darwin-wga %s %s %s/%s\n", version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// alignMain is the classic one-shot CLI: parse flags, align, write MAF.
func alignMain(args []string) int {
	fs := flag.NewFlagSet("darwin-wga", flag.ContinueOnError)
	var (
		opts        options
		showVersion = fs.Bool("version", false, "print version and exit")
		hf          = fs.Int("hf", 0, "filter threshold Hf (0 = configuration default)")
		he          = fs.Int("he", 0, "extension threshold He (0 = configuration default)")
	)
	fs.StringVar(&opts.targetPath, "target", "", "target genome FASTA")
	fs.StringVar(&opts.queryPath, "query", "", "query genome FASTA")
	fs.StringVar(&opts.pairName, "pair", "", "synthesize a standard pair instead (ce11-cb4, dm6-dp4, dm6-droYak2, dm6-droSim1)")
	fs.Float64Var(&opts.scale, "scale", 0.01, "genome scale for -pair (fraction of real assembly size)")
	fs.StringVar(&opts.outPath, "out", "", "MAF output file (default stdout)")
	fs.BoolVar(&opts.ungapped, "ungapped", false, "use LASTZ-style ungapped filtering (baseline mode)")
	fs.IntVar(&opts.workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.BoolVar(&opts.oneStrand, "forward-only", false, "skip the reverse-complement strand")
	fs.IntVar(&opts.topChains, "top", 10, "number of top chains to summarize")
	fs.DurationVar(&opts.timeout, "timeout", 0, "soft wall-clock budget; on expiry the partial result is still written (0 = none)")
	fs.StringVar(&opts.checkpointDir, "checkpoint", "", "journal progress to this directory; a killed run rerun with the same flags resumes from it")
	fs.IntVar(&opts.retries, "retries", 0, "re-run a failed pipeline shard up to this many extra times before dropping it (0 = fail the call on first shard failure)")
	fs.DurationVar(&opts.retryDelay, "retry-delay", 100*time.Millisecond, "base backoff before a shard retry (doubles per attempt, with jitter)")
	fs.DurationVar(&opts.retryMaxDelay, "retry-max-delay", 5*time.Second, "cap on the per-retry backoff delay")
	fs.StringVar(&opts.tracePath, "trace", "", "write a Chrome trace_event JSON span tree of the run here (open in Perfetto or about://tracing)")
	fs.StringVar(&opts.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run here")
	fs.StringVar(&opts.memProfile, "memprofile", "", "write a pprof heap profile (taken after the run) here")
	if err := fs.Parse(args); err != nil {
		// The flag package has already printed the error and usage.
		return 2
	}
	if *showVersion {
		printVersion(os.Stdout)
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "darwin-wga: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	opts.hf, opts.he = int32(*hf), int32(*he)

	// SIGINT/SIGTERM cancel the pipeline; run still writes whatever was
	// aligned before the signal landed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga:", err)
		return 1
	}
	return 0
}

// registerList collects repeated -register name=path flags.
type registerList []registerSpec

type registerSpec struct{ name, path string }

func (r *registerList) String() string {
	parts := make([]string, len(*r))
	for i, s := range *r {
		parts[i] = s.name + "=" + s.path
	}
	return strings.Join(parts, ",")
}

func (r *registerList) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*r = append(*r, registerSpec{name: name, path: path})
	return nil
}

// serveMain runs the alignment job server until SIGINT/SIGTERM, then
// drains it gracefully: running jobs finish (bounded by -drain-grace),
// queued jobs are cancelled, and in-flight MAF streams complete.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("darwin-wga serve", flag.ContinueOnError)
	var (
		registers   registerList
		role        = fs.String("role", "standalone", "standalone, coordinator, or worker")
		coordURLs   = fs.String("coordinator", "", "comma-separated coordinator base URLs: the first is registered with, the rest are failed over to (worker role)")
		advertise   = fs.String("advertise", "", "base URL peers dial this process back at: the coordinator for a worker, workers for a coordinator (default http://<bound addr>)")
		workerID    = fs.String("worker-id", "", "stable worker identity across restarts (worker role; default the bound addr)")
		standbyOf   = fs.String("standby-of", "", "run as a warm standby of this leader coordinator URL (coordinator role; requires -journal-dir)")
		standbyURLs = fs.String("standbys", "", "comma-separated standby coordinator URLs advertised to workers (coordinator role)")
		shipEvery   = fs.Duration("ship-interval", 2*time.Second, "how often a running job's checkpoint segments ship to its coordinator (worker role with -checkpoint-root)")
		shardTgts   = fs.String("shard-dispatch", "", `comma-separated targets whose jobs scatter as per-shard work units across every worker holding the target ("*" = all targets; coordinator role)`)
		shardUnits  = fs.Int("shard-units", 0, "work units per strand a sharded job decomposes into (coordinator role; 0 = default)")
		replication = fs.Int("replication", 2, "replicas considered per target (coordinator role)")
		leaseTTL    = fs.Duration("lease-ttl", 10*time.Second, "worker lease lifetime without a heartbeat (coordinator role)")
		dispatchTO  = fs.Duration("dispatch-timeout", 10*time.Second, "per-request timeout talking to workers (coordinator role)")
		addr        = fs.String("addr", "127.0.0.1:8053", "listen address (host:port, port 0 picks a free port)")
		jobWorkers  = fs.Int("job-workers", 2, "jobs aligned concurrently")
		queueDepth  = fs.Int("queue", 16, "submission queue depth; a full queue answers 429")
		maxInflight = fs.Int("max-inflight", 8, "per-client queued+running job cap (-1 = unlimited)")
		maxQueryMB  = fs.Int("max-query-mb", 64, "largest accepted query in MiB of bases")
		maxDeadline = fs.Duration("max-deadline", 0, "clamp (and default) for per-job soft deadlines (0 = none)")
		retryAfter  = fs.Duration("retry-after", 2*time.Second, "Retry-After hint on 429 responses")
		drainGrace  = fs.Duration("drain-grace", 30*time.Second, "how long shutdown lets running jobs finish")
		retain      = fs.Int("retain", 256, "finished jobs kept queryable, with their artifacts and journal records (every role)")
		ckptRoot    = fs.String("checkpoint-root", "", "per-job crash-safe journals under this directory (empty = off)")
		journalDir  = fs.String("journal-dir", "", "durable job store: lifecycle WAL + query/MAF artifacts; replayed on startup (empty = off)")
		stallWindow = fs.Duration("stall-window", 2*time.Minute, "cancel+retry a job with no pipeline progress for this long (0 = watchdog off)")
		stallRetry  = fs.Int("stall-retries", 1, "re-runs allowed per stalled job before it fails (0 = none)")
		stallDelay  = fs.Duration("stall-retry-delay", time.Second, "pause before re-running a stalled job")
		brkThresh   = fs.Int("breaker-threshold", 5, "consecutive job failures tripping a target's circuit breaker (0 = breaker off)")
		brkCooldown = fs.Duration("breaker-cooldown", 30*time.Second, "how long a tripped breaker rejects before probing")
		memHighMB   = fs.Int64("mem-highwater-mb", 0, "reject submissions that would push the heap past this many MiB (0 = off)")
		indexDir    = fs.String("index-dir", "", "directory of serialized target indexes (<name>.dwx, written by darwin-wga index build); matching files load near-instantly instead of rebuilding")
		indexBudMB  = fs.Int64("index-budget-mb", 0, "evict least-recently-used idle target indexes past this many MiB resident (0 = half of -mem-highwater-mb, -1 = eviction off)")
		resCacheMB  = fs.Int64("result-cache-mb", 64, "cache finished MAF results up to this many MiB, serving repeated identical submissions without a pipeline run (0 = off)")
		seedPattern = fs.String("seed-pattern", "", "spaced-seed pattern shaping every target index (default: the pipeline default; must match any serialized indexes)")
		traceCap    = fs.Int("trace-events", 4096, "span-buffer events retained per job for GET /v1/jobs/{id}/trace (-1 = tracing off)")
		workers     = fs.Int("workers", 0, "pipeline worker goroutines per job (0 = GOMAXPROCS)")
		enablePprof = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the API handler")
		logFormat   = fs.String("log-format", "text", "operational log format: text or json")
	)
	fs.Var(&registers, "register", "name=path of a target FASTA to index at startup (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "darwin-wga serve: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fmt.Fprintf(os.Stderr, "darwin-wga serve: -log-format must be text or json, got %q\n", *logFormat)
		return 2
	}

	switch *role {
	case "standalone", "worker":
	case "coordinator":
		return coordinatorMain(cluster.Config{
			Addr:              *addr,
			AdvertiseURL:      strings.TrimSuffix(*advertise, "/"),
			ShardDispatch:     splitURLList(*shardTgts),
			ShardUnits:        *shardUnits,
			Standbys:          splitURLList(*standbyURLs),
			ReplicationFactor: *replication,
			LeaseTTL:          *leaseTTL,
			DispatchTimeout:   *dispatchTO,
			MaxQueryBases:     *maxQueryMB << 20,
			RetainJobs:        *retain,
			JournalDir:        *journalDir,
			Log:               logger,
		}, strings.TrimSuffix(*standbyOf, "/"))
	default:
		fmt.Fprintf(os.Stderr, "darwin-wga serve: -role must be standalone, coordinator, or worker, got %q\n", *role)
		return 2
	}
	coordinators := splitURLList(*coordURLs)
	if *role == "worker" && len(coordinators) == 0 {
		fmt.Fprintln(os.Stderr, "darwin-wga serve: -role=worker requires -coordinator")
		return 2
	}

	pipeline := darwinwga.DefaultConfig()
	pipeline.Workers = *workers
	if *seedPattern != "" {
		pipeline.SeedPattern = *seedPattern
	}
	// -index-budget-mb follows the CLI's "0 = default, negative = off"
	// convention; the library uses the same encoding, so only the MiB
	// scaling needs mapping.
	indexBudget := *indexBudMB << 20
	if *indexBudMB < 0 {
		indexBudget = -1
	}
	// On the CLI "0" reads as "off"; the library uses 0 for "default"
	// and negatives for "off", so map explicitly.
	for _, z := range []*int{stallRetry, brkThresh} {
		if *z <= 0 {
			*z = -1
		}
	}
	if *stallWindow <= 0 {
		*stallWindow = -1
	}
	// The crash-injection env contract (DARWINWGA_CRASH_AFTER_CKPT_WRITES
	// and friends) applies to the per-job pipeline checkpoints in serve
	// mode too — the SIGKILL-restart e2e test uses it to die mid-job.
	pipeline.CheckpointFaults = crashFaultsFromEnv()
	srv, err := darwinwga.NewServer(darwinwga.ServerConfig{
		Addr:                 *addr,
		Pipeline:             pipeline,
		JobWorkers:           *jobWorkers,
		QueueDepth:           *queueDepth,
		MaxInFlightPerClient: *maxInflight,
		MaxQueryBases:        *maxQueryMB << 20,
		MaxDeadline:          *maxDeadline,
		RetryAfter:           *retryAfter,
		DrainGrace:           *drainGrace,
		RetainJobs:           *retain,
		CheckpointRoot:       *ckptRoot,
		JournalDir:           *journalDir,
		StallWindow:          *stallWindow,
		StallRetries:         *stallRetry,
		StallRetryDelay:      *stallDelay,
		BreakerThreshold:     *brkThresh,
		BreakerCooldown:      *brkCooldown,
		MemoryHighWater:      *memHighMB << 20,
		IndexDir:             *indexDir,
		IndexBudget:          indexBudget,
		ResultCacheBytes:     *resCacheMB << 20,
		TraceEventCap:        *traceCap,
		ShipInterval:         *shipEvery,
		ShardFaults:          shardFaultsFromEnv(),
		Log:                  logger,
		EnablePprof:          *enablePprof,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga serve:", err)
		return 1
	}
	for _, reg := range registers {
		asm, err := darwinwga.ReadFASTA(reg.path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "darwin-wga serve: loading %s: %v\n", reg.path, err)
			return 1
		}
		if _, err := srv.RegisterTarget(reg.name, asm); err != nil {
			fmt.Fprintf(os.Stderr, "darwin-wga serve: registering %s: %v\n", reg.name, err)
			return 1
		}
	}

	return serveRole(*role, *addr, logger, func(ctx context.Context, ln net.Listener) {
		if *role != "worker" {
			return
		}
		id, adv := *workerID, *advertise
		if id == "" {
			id = ln.Addr().String()
		}
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		agent, err := cluster.NewAgent(cluster.AgentConfig{
			Coordinator:  coordinators[0],
			Coordinators: coordinators[1:],
			WorkerID:     id,
			Advertise:    adv,
			Server:       srv,
			Log:          logger,
		})
		if err != nil {
			logger.Error("worker agent not started", "err", err)
			return
		}
		agent.Run(ctx) //nolint:errcheck // exits with ctx at shutdown
	}, srv.Serve, func() error { return srv.Shutdown(context.Background()) })
}

// splitURLList parses a comma-separated URL list flag, dropping empties
// and trailing slashes.
func splitURLList(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u != "" {
			out = append(out, u)
		}
	}
	return out
}

// coordinatorMain runs the cluster coordinator until SIGINT/SIGTERM.
// Shutdown is crash-only: in-flight jobs are not failed, they are
// journaled and resume on the next start exactly as after a crash.
// With -standby-of it instead runs as a warm standby: it tails the
// leader's routing WAL, serves 503 (pointing at the leader) until the
// replication stream goes silent past the lease TTL, then promotes
// itself to a full coordinator on the same address with a higher
// fencing epoch.
func coordinatorMain(cfg cluster.Config, standbyOf string) int {
	if standbyOf != "" {
		return standbyMain(cfg, standbyOf)
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga serve:", err)
		return 1
	}
	return serveRole("coordinator", cfg.Addr, cfg.Log, nil, coord.Serve, func() error {
		return coord.Shutdown(context.Background())
	})
}

// standbyMain runs the warm-standby coordinator: tail the leader's
// journal, promote on silence, keep serving on the same listener
// throughout (503 before promotion, the full coordinator API after).
func standbyMain(cfg cluster.Config, leaderURL string) int {
	if cfg.JournalDir == "" {
		fmt.Fprintln(os.Stderr, "darwin-wga serve: -standby-of requires -journal-dir")
		return 2
	}
	sb, err := cluster.NewStandby(cluster.StandbyConfig{
		LeaderURL:   leaderURL,
		JournalDir:  cfg.JournalDir,
		Coordinator: cfg,
		Log:         cfg.Log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga serve:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: sb.Handler()}
	return serveRole("standby", cfg.Addr, cfg.Log, func(ctx context.Context, _ net.Listener) {
		cfg.Log.Info("standby replicating", "leader", leaderURL)
		if err := sb.Run(ctx); err != nil && ctx.Err() == nil {
			cfg.Log.Error("standby replication loop", "err", err)
		}
	}, httpSrv.Serve, func() error {
		return errors.Join(sb.Shutdown(context.Background()), httpSrv.Close())
	})
}

// serveRole binds addr, announces the bound address and serves a role on
// it until SIGINT/SIGTERM, which drains it: beside (optional) runs next
// to the server until the signal; stop, called on it, makes serve return.
func serveRole(role, addr string, log *slog.Logger, beside func(context.Context, net.Listener), serve func(net.Listener) error, stop func() error) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga serve:", err)
		return 1
	}
	// The bound address line is load-bearing: with -addr :0 it is how
	// callers (and the e2e tests) discover the actual port.
	fmt.Fprintf(os.Stderr, "darwin-wga serve: listening on %s\n", ln.Addr())
	log.Info("serving", "addr", ln.Addr().String(), "role", role, "version", obs.BuildVersion())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if beside != nil {
		go beside(ctx, ln)
	}
	stopped := make(chan error, 1)
	go func() {
		<-ctx.Done()
		log.Info("signal received, draining " + role)
		stopped <- stop()
	}()
	if err := serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "darwin-wga serve:", err)
		return 1
	}
	if err := <-stopped; err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga serve: shutdown:", err)
		return 1
	}
	log.Info(role + " drained, exiting")
	return 0
}

// pipelineConfig maps the alignment flags onto the pipeline
// configuration through core.JobSpec.Apply — the mapping a served job's
// parameters go through, which is what keeps the two byte-identical.
// -timeout is set as a duration (a JobSpec deadline has millisecond
// resolution).
func pipelineConfig(opts options) darwinwga.Config {
	cfg := core.JobSpec{
		Ungapped:    opts.ungapped,
		ForwardOnly: opts.oneStrand,
		Hf:          opts.hf,
		He:          opts.he,
	}.Apply(darwinwga.DefaultConfig())
	cfg.Workers = opts.workers
	cfg.Deadline = opts.timeout
	return cfg
}

func run(ctx context.Context, opts options) error {
	switch {
	case opts.scale <= 0:
		return fmt.Errorf("-scale must be positive, got %g", opts.scale)
	case opts.topChains < 0:
		return fmt.Errorf("-top must be non-negative, got %d", opts.topChains)
	case opts.timeout < 0:
		return fmt.Errorf("-timeout must be non-negative, got %v", opts.timeout)
	case opts.retries < 0:
		return fmt.Errorf("-retries must be non-negative, got %d", opts.retries)
	case opts.retryDelay < 0:
		return fmt.Errorf("-retry-delay must be non-negative, got %v", opts.retryDelay)
	case opts.retryMaxDelay < 0:
		return fmt.Errorf("-retry-max-delay must be non-negative, got %v", opts.retryMaxDelay)
	}

	if opts.cpuProfile != "" {
		f, err := os.Create(opts.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "warning: closing CPU profile: %v\n", err)
			}
		}()
	}
	if opts.memProfile != "" {
		defer func() {
			if err := writeHeapProfile(opts.memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "warning: writing heap profile: %v\n", err)
			}
		}()
	}

	var target, query *darwinwga.Assembly
	switch {
	case opts.pairName != "":
		cfg, ok := darwinwga.StandardPair(opts.pairName, opts.scale)
		if !ok {
			return fmt.Errorf("unknown pair %q (want one of %v)", opts.pairName, darwinwga.StandardPairNames())
		}
		pair, err := darwinwga.GeneratePair(cfg)
		if err != nil {
			return err
		}
		target, query = pair.Target, pair.Query
		fmt.Fprintf(os.Stderr, "synthesized %s: target %s, query %s\n", opts.pairName, target, query)
	case opts.targetPath != "" && opts.queryPath != "":
		var err error
		if target, err = darwinwga.ReadFASTA(opts.targetPath); err != nil {
			return err
		}
		if query, err = darwinwga.ReadFASTA(opts.queryPath); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need either -pair or both -target and -query")
	}

	cfg := pipelineConfig(opts)
	cfg.CheckpointDir = opts.checkpointDir
	if opts.retries > 0 {
		cfg.Retry = darwinwga.RetryPolicy{
			MaxAttempts: opts.retries + 1,
			BaseDelay:   opts.retryDelay,
			MaxDelay:    opts.retryMaxDelay,
		}
	}
	cfg.CheckpointFaults = crashFaultsFromEnv()

	var tracer *darwinwga.Tracer
	if opts.tracePath != "" {
		tracer = darwinwga.NewTracer()
		cfg.Recorder = tracer
	}

	rep, alignErr := darwinwga.AlignAssembliesContext(ctx, target, query, cfg)
	// The trace is written even for partial or failed runs — a run worth
	// tracing is often exactly one that misbehaves.
	if tracer != nil {
		if err := writeTrace(tracer, opts.tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "warning: writing trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "trace written to %s\n", opts.tracePath)
		}
	}
	if rep == nil {
		return alignErr
	}
	if alignErr != nil {
		fmt.Fprintf(os.Stderr, "interrupted (%v): writing partial results\n", alignErr)
	}

	if opts.outPath != "" {
		if err := checkpoint.WriteFileAtomic(opts.outPath, nil, rep.WriteMAF); err != nil {
			return err
		}
	} else if err := rep.WriteMAF(os.Stdout); err != nil {
		return err
	}

	// A complete run has no further use for its journal; removing it
	// keeps a later run with different inputs from tripping over a stale
	// ErrCheckpointMismatch. Partial runs keep theirs for resuming.
	if opts.checkpointDir != "" && alignErr == nil && rep.Truncated == "" {
		if err := checkpoint.Remove(opts.checkpointDir); err != nil {
			fmt.Fprintf(os.Stderr, "warning: removing completed checkpoint journal: %v\n", err)
		}
	}

	trunc := ""
	if rep.Truncated != "" {
		trunc = fmt.Sprintf(" (truncated: %s)", rep.Truncated)
	}
	w := rep.Workload
	fmt.Fprintf(os.Stderr, "\nfilter mode: %s%s\n", cfg.Filter, trunc)
	fmt.Fprintf(os.Stderr, "workload: %s seed hits, %s filter tiles, %s passed, %s extension tiles\n",
		stats.Comma(w.SeedHits), stats.Comma(w.FilterTiles), stats.Comma(w.PassedFilter), stats.Comma(w.ExtensionTiles))
	fmt.Fprintf(os.Stderr, "timings: seeding %v, filtering %v, extension %v\n",
		rep.Timings.Seeding, rep.Timings.Filtering, rep.Timings.Extension)
	fmt.Fprintf(os.Stderr, "alignments: %d HSPs in %d chains, %s matched bp%s\n",
		len(rep.HSPs), len(rep.Chains), stats.Comma(int64(rep.TotalMatches())), trunc)
	for i, s := range rep.TopChainScores(opts.topChains) {
		fmt.Fprintf(os.Stderr, "chain %2d: score %s\n", i+1, stats.Comma(s))
	}
	return alignErr
}

// writeTrace stores the collected span tree as Chrome trace_event JSON.
func writeTrace(t *darwinwga.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeHeapProfile snapshots the heap after a GC, so the profile shows
// live retention rather than garbage awaiting collection.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// crashFaultsFromEnv builds the deterministic I/O fault plan the
// crash–resume end-to-end test injects into a child process:
//
//	DARWINWGA_CRASH_AFTER_CKPT_WRITES=N   SIGKILL self on the Nth
//	                                      (1-based) checkpoint write
//	DARWINWGA_CRASH_SHORT=K               first write K bytes of that
//	                                      record's frame (torn write)
//	DARWINWGA_IOERR_ON_CKPT_WRITE=N       fail the Nth checkpoint write
//	                                      with a transient error
//
// Unset (the normal case) returns nil — no injection.
func crashFaultsFromEnv() *faultinject.IOFaults {
	var rules []faultinject.IORule
	if hit, ok := envHit("DARWINWGA_CRASH_AFTER_CKPT_WRITES"); ok {
		short := 0
		if s, ok := envHit("DARWINWGA_CRASH_SHORT"); ok {
			short = s
		}
		rules = append(rules, faultinject.IORule{
			Op: faultinject.OpWrite, Hit: hit,
			Action: faultinject.IOCrash, Short: short,
		})
	}
	if hit, ok := envHit("DARWINWGA_IOERR_ON_CKPT_WRITE"); ok {
		rules = append(rules, faultinject.IORule{
			Op: faultinject.OpWrite, Hit: hit, Action: faultinject.IOErr,
		})
	}
	if len(rules) == 0 {
		return nil
	}
	return faultinject.NewIO(rules...)
}

// shardFaultsFromEnv parses DARWINWGA_SHARD_FAULTS, the deterministic
// shard-unit failure plan the partial-result e2e test injects into
// worker children: comma-separated "seq[:strand[:hit]]" rules ("*"
// wildcards), each failing the matching POST /v1/shards unit with a
// 500. Unset (the normal case) returns nil — no injection.
func shardFaultsFromEnv() *faultinject.ShardFaults {
	spec := os.Getenv("DARWINWGA_SHARD_FAULTS")
	sf, err := faultinject.ParseShardFaults(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: ignoring bad DARWINWGA_SHARD_FAULTS=%q: %v\n", spec, err)
		return nil
	}
	return sf
}

// envHit parses a positive integer fault-injection variable; malformed
// values are ignored with a warning rather than failing a real run.
func envHit(name string) (int, bool) {
	s := os.Getenv(name)
	if s == "" {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 1 {
		fmt.Fprintf(os.Stderr, "warning: ignoring bad %s=%q\n", name, s)
		return 0, false
	}
	return n, true
}
