package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/truth"
)

// warmUpShare is how long a run keeps the program busy before it
// measures, as a share of the time it then measures for.
const warmUpShare = 0.2

// minPasses is the least number of passes an untraced run makes, however
// long one takes.
const minPasses = 3

// countedPass is the pass whose layer counters a traced run reports: its
// first traced one.
const countedPass = 1

// outDir is where a run leaves its trace file and scratch files, inside
// the benchmark's own directory.
const outDir = "bench/out"

// sample is the record of one job.
type sample struct {
	job, pass     int
	traced        bool
	start         time.Time
	submit        time.Duration // serve: the POST round trip
	firstBlock    time.Duration // job start -> first MAF block; 0 = the job has no block
	total         time.Duration
	maf           []byte
	err           error
	front, worker *jobStatus // serve: job status at the front door and at the worker that ran it
}

// layerCounts is what the layers themselves counted during one pass.
type layerCounts struct {
	seedHits, candidates, filterTiles, filterCells   int64
	passed, absorbed, extAnchors, extTiles, extCells int64
	hsps                                             int64
	seedS, filterS, extendS, chainS, mafS            time.Duration // stage walls summed over the pass's jobs
	filterBusy, extBusy                              time.Duration // kernel busy time summed over workers
	traceEvents                                      int64
	cacheHits, rejected                              int64
	dispatches                                       int64
	shardUnits, shardRetried                         int64
	shardHedged, shardDuplicate                      int64
}

func (c *layerCounts) addWorkload(w core.Workload) {
	c.seedHits += w.SeedHits
	c.candidates += w.Candidates
	c.filterTiles += w.FilterTiles
	c.filterCells += w.FilterCells
	c.passed += w.PassedFilter
	c.absorbed += w.Absorbed
	c.extAnchors += w.PassedFilter - w.Absorbed
	c.extTiles += w.ExtensionTiles
	c.extCells += w.ExtensionCells
}

// world is a workload set up and ready to take its job list.
type world interface {
	// runPass runs the whole job list once; tr is nil for an untraced pass.
	runPass(ctx context.Context, pass int, tr *spanLog) []sample
	// passCounts reports the layer counters of the last pass.
	passCounts() layerCounts
	// warm runs one small untimed job, so that the first timed job does
	// not pay for the process's first use of everything.
	warm(ctx context.Context) error
	close()
}

// setupTimes is one timed set-up: inputs generated, target indexed,
// servers ready.
type setupTimes struct{ total, generate, index time.Duration }

func setupWorld(ctx context.Context, s spec, seed int64) (*inputs, world, setupTimes, error) {
	t0 := time.Now()
	in, err := buildInputs(s, seed)
	if err != nil {
		return nil, nil, setupTimes{}, err
	}
	st := setupTimes{generate: time.Since(t0)}
	var w world
	if s.topo == library {
		w, st.index, err = setupLibrary(in)
	} else {
		w, st.index, err = setupServe(ctx, in)
	}
	st.total = time.Since(t0)
	return in, w, st, err
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload is one benchmark run: set up (several times, for a steady
// setup_s), pass over the job list until about `seconds` of measured time,
// verify every output, and report. An untraced run reports the end-to-end
// metrics; a traced run alternates untraced and traced passes and reports
// the per-layer metrics.
func runWorkload(ctx context.Context, s spec, seed int64, seconds float64, traced bool) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())

	// Set up at least three times and for at least a second in total;
	// the last world is the one measured.
	var setups []setupTimes
	var in *inputs
	var w world
	for spent := time.Duration(0); ; {
		var st setupTimes
		var err error
		in, w, st, err = setupWorld(ctx, s, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
		spent += st.total
		if n := len(setups); n >= 3 && (spent >= time.Second || n >= 7) {
			break
		}
		w.close()
	}
	defer func() { w.close() }()
	// Warm up for a while, not just once: besides first-use costs in the
	// process, a CPU that has been idle runs its first seconds slower.
	for t0 := time.Now(); secs(time.Since(t0)) < warmUpShare*seconds; {
		if err := w.warm(ctx); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	var tr *spanLog
	if traced {
		tr = newSpanLog()
	}
	var samples []sample
	var counts layerCounts
	var measured time.Duration
	var plain []passStats // the untraced passes
	mem0 := readMem()
	for pass := 0; ; pass++ {
		if pass > 0 && s.topo != library {
			// Servers keep state between jobs (the result cache above
			// all), so every pass gets servers of its own.
			w.close()
			var st setupTimes
			var err error
			if in, w, st, err = setupWorld(ctx, s, seed); err != nil {
				return nil, fmt.Errorf("set-up for pass %d: %w", pass, err)
			}
			setups = append(setups, st)
		}
		passTrace := tr
		if pass%2 == 0 {
			passTrace = nil
		}
		resetPeakRSS()
		t0 := time.Now()
		ss := w.runPass(ctx, pass, passTrace)
		wall := time.Since(t0)
		samples = append(samples, ss...)
		measured += wall
		if passTrace == nil {
			plain = append(plain, statsOfPass(ss, in.queryBases(), wall))
		}
		// Layer counters come from one fixed pass, so they repeat
		// exactly however many passes the clock allows.
		if (traced && pass == countedPass) || (!traced && pass == 0) {
			counts = w.passCounts()
		}
		if traced && pass%2 == 0 {
			continue // a traced run measures in untraced/traced pairs
		}
		// Stop where the measured time is nearest the target: another
		// pass only if half of it still fits. An untraced run makes at
		// least minPasses, so that every job has repeats to choose from.
		if !traced && pass+1 < minPasses {
			continue
		}
		if avg := measured / time.Duration(pass+1); secs(measured+avg/2) >= seconds {
			break
		}
	}
	mem := memSince(mem0)

	v := verify(in, samples)
	res := &result{Correct: v.failed == 0, Attempted: len(samples), Failed: v.failed, Metrics: map[string]metricValue{}}
	for _, msg := range v.messages {
		fmt.Fprintln(os.Stderr, "bench: verify:", msg)
	}
	if share, ok := stageShare(s, counts); !ok {
		fmt.Fprintf(os.Stderr, "bench: warning: %s spends %.0f%% of Align in %s, below the %.0f%% the workload is meant to have\n",
			s.name, 100*share, s.wantStage, 100*s.wantShare)
	}

	var jobS, tracedJobS, firstS []float64
	for _, sm := range samples {
		switch {
		case sm.err != nil:
		case sm.traced:
			tracedJobS = append(tracedJobS, secs(sm.total))
		default:
			jobS = append(jobS, secs(sm.total))
			if sm.firstBlock > 0 {
				firstS = append(firstS, secs(sm.firstBlock))
			}
		}
	}
	var setupS []float64
	for _, st := range setups {
		setupS = append(setupS, secs(st.total))
	}
	m := v.truth
	put := func(name string, value float64) {
		res.Metrics[name] = metricValue{Value: value, Unit: unitOf(name)}
	}
	if !traced {
		best := leastDisturbed(plain)
		put("setup_s", median(setupS))
		put("job_p50_s", best.jobP50)
		put("bases_per_s", best.basesPerS)
		put("truth_recall", m.Recall())
		put("truth_precision", m.Precision())
		put("peak_rss_mb", best.peakRSS)
		fmt.Fprintf(os.Stderr, "bench: %s seed=%d inputs=%s: %d jobs in %d passes, %.2fs measured; job p50 %.3fs over each job's fastest repeat, %.3fs over all %d jobs; set-up over %d\n",
			s.name, seed, in.digest(), len(samples), len(plain), secs(measured), best.jobP50, median(jobS), len(jobS), len(setupS))
		return res, nil
	}

	pr, err := runProbes(in, filepath.Join(outDir, "tmp"))
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	var oneShotExtCells int64
	if s.topo == shard {
		if oneShotExtCells, err = oneShotExtensionCells(in); err != nil {
			return nil, err
		}
	}
	selfSum, jobTotal, err := tr.write(filepath.Join(outDir, s.name+".trace.json"), s.name, seed)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	if jobTotal > 0 && (selfSum < jobTotal*95/100 || selfSum > jobTotal*105/100) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "bench: per-layer self times sum to %v, job spans to %v: more than 5%% apart\n", selfSum, jobTotal)
	}
	layerMetrics(put, layerInput{
		spec: s, counts: counts, probes: pr, setups: setups, samples: samples,
		plainJobS: jobS, tracedJobS: tracedJobS, firstBlockS: firstS, falseHSPs: v.falseHSPs, mafBytes: v.mafBytes,
		mem: mem, oneShotExtCells: oneShotExtCells, workers: runtime.GOMAXPROCS(0),
	})
	return res, nil
}

// passStats is what one untraced pass over the job list measured.
type passStats struct {
	jobS      []float64 // job time by position in the job list, s; 0 = failed
	basesPerS float64   // query bases completed per wall-second
	peakRSS   float64   // resident-set high-water mark during the pass, MB
}

func statsOfPass(ss []sample, bases int, wall time.Duration) passStats {
	p := passStats{jobS: make([]float64, len(ss)), basesPerS: ratio(float64(bases), secs(wall)), peakRSS: peakRSSMB()}
	for _, sm := range ss {
		if sm.err == nil {
			p.jobS[sm.job] = secs(sm.total)
		}
	}
	return p
}

// runStats is a run's untraced passes reduced to one number per metric.
type runStats struct{ jobP50, basesPerS, peakRSS float64 }

// leastDisturbed reduces the passes. Every pass does the same work, job for
// job, so repeats of a job differ only by what else the machine was doing,
// and that only ever slows them down. A job's time is therefore its fastest
// repeat, job_p50_s the median of those over the job list, and the rate the
// fastest pass's. Memory is not disturbed that way and takes the median.
func leastDisturbed(passes []passStats) runStats {
	var r runStats
	var rss, jobS []float64
	for _, p := range passes {
		r.basesPerS = max(r.basesPerS, p.basesPerS)
		rss = append(rss, p.peakRSS)
	}
	for j := range passes[0].jobS {
		fastest := 0.0
		for _, p := range passes {
			if t := p.jobS[j]; t > 0 && (fastest == 0 || t < fastest) {
				fastest = t
			}
		}
		if fastest > 0 {
			jobS = append(jobS, fastest)
		}
	}
	r.jobP50, r.peakRSS = median(jobS), median(rss)
	return r
}

// stageShare is the share of Align time the workload's own stage took, and
// whether that still meets what the workload promises.
func stageShare(s spec, c layerCounts) (float64, bool) {
	if s.wantStage == "" {
		return 0, true
	}
	stage := c.filterS
	if s.wantStage == "extend" {
		stage = c.extendS
	}
	share := ratio(secs(stage), secs(c.seedS+c.filterS+c.extendS))
	return share, share >= s.wantShare
}

// verification is the outcome of checking every job's output.
type verification struct {
	failed    int
	messages  []string
	truth     truth.Metrics
	falseHSPs int
	mafBytes  int64 // MAF bytes of the first pass
}

// byteIdentityChecks is how many serve jobs per run are compared byte for
// byte with the public one-shot entry point on the same window.
const byteIdentityChecks = 3

// verify checks every sample outside the timed window. A job fails if it
// errored, was refused, or ended partial; if its MAF does not parse as a
// complete file inside its window; if a repeat of a window (a resubmission,
// a later pass) differs from the first output for that window; or if it is
// one of the sampled serve jobs and differs from the one-shot library output.
func verify(in *inputs, samples []sample) verification {
	var v verification
	sc := newScorer(in)
	firstMAF := map[int][]byte{} // window -> first output seen
	firstIdx := map[int]int{}    // window -> the sample that output came from
	bad := map[int]bool{}        // index into samples
	fail := func(i int, format string, args ...any) {
		if !bad[i] {
			bad[i] = true
			v.failed++
		}
		if len(v.messages) < 10 {
			sm := samples[i]
			v.messages = append(v.messages, fmt.Sprintf("pass %d job %d: %s", sm.pass, sm.job, fmt.Sprintf(format, args...)))
		}
	}
	for i, sm := range samples {
		if sm.err != nil {
			fail(i, "%v", sm.err)
			continue
		}
		w := in.jobs[sm.job].window
		if sm.pass == 0 {
			v.mafBytes += int64(len(sm.maf))
		}
		if ref, seen := firstMAF[w]; seen {
			if !bytes.Equal(ref, sm.maf) {
				fail(i, "MAF differs from the first output for window %d", w)
			}
			continue
		}
		firstMAF[w], firstIdx[w] = sm.maf, i
	}
	// Score in window order, not submission order: where two windows align
	// the same target base (a duplicated segment) the first one scored
	// keeps it, and the score must not depend on the seed's permutation.
	for w := range in.wins {
		if data, ok := firstMAF[w]; ok {
			if err := sc.add(data, w); err != nil {
				fail(firstIdx[w], "%v", err)
			}
		}
	}
	if in.spec.topo != library {
		rng := rand.New(rand.NewSource(in.seed))
		for _, w := range rng.Perm(len(in.wins))[:min(byteIdentityChecks, len(in.wins))] {
			want, err := oneShotMAF(in, w)
			for i, sm := range samples {
				if sm.err != nil || in.jobs[sm.job].window != w {
					continue
				}
				if err != nil {
					fail(i, "one-shot reference for window %d: %v", w, err)
				} else if !bytes.Equal(want, sm.maf) {
					fail(i, "MAF is not byte-identical to AlignAssemblies+WriteMAF of window %d", w)
				}
			}
		}
	}
	v.truth = sc.metrics()
	v.falseHSPs = sc.falseHSPs
	if v.truth.NearBases == 0 {
		v.failed = len(samples)
		v.messages = append(v.messages, "no truly orthologous base was aligned")
	}
	return v
}
