package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// The per-shard scatter/gather plane. For targets in cfg.ShardDispatch
// the coordinator does not route a job to one worker: it decomposes the
// query into strand/seed-shard work units (core.PlanShards), scatters
// them across every worker advertising the target, and gathers the
// per-unit HSP frames back through a deterministic reorder/merge so the
// final MAF is byte-identical to a one-shot run. Each unit has its own
// lease (the in-flight HTTP request, bounded by ShardLease), its own
// retry/failover loop, a straggler hedge past a p90-based threshold
// with first-result-wins dedup (units are idempotent: pure functions of
// fingerprint + query + range), and a journaled completion record so a
// coordinator restart re-dispatches only unfinished units. Units that
// exhaust retries degrade the job into a partial result instead of
// failing it.

// shardTruncatedReason marks a partial result in job status: the merge
// completed but FailedShards exhausted their retry budget.
const shardTruncatedReason = "shard-failures"

// shardEnabled reports whether a job against target takes the
// scatter/gather path. Budgeted jobs always keep whole-job routing (see
// core.JobSpec.Budgeted): those budgets can only be accounted job-wide.
func (c *Coordinator) shardEnabled(target string, spec core.JobSpec) bool {
	if spec.Budgeted() {
		return false
	}
	for _, t := range c.cfg.ShardDispatch {
		if t == "*" || t == target {
			return true
		}
	}
	return false
}

// shardUnitStatus is one unit's client-visible lifecycle state.
type shardUnitStatus struct {
	Unit     core.ShardUnit `json:"unit"`
	State    string         `json:"state"` // pending | running | done | failed
	Worker   string         `json:"worker,omitempty"`
	Attempts int            `json:"attempts,omitempty"`
	Hedged   bool           `json:"hedged,omitempty"`
}

// shardStatusView is the shard map exposed on job status.
type shardStatusView struct {
	Total  int               `json:"total"`
	Done   int               `json:"done"`
	Failed int               `json:"failed"`
	Hedged int               `json:"hedged"`
	Units  []shardUnitStatus `json:"units"`
}

type shardUnitInfo struct {
	shardUnitStatus
	startedAt time.Time // first dispatch, the straggler clock
}

// shardProgress tracks per-unit state for status reporting and hedge
// decisions. Its lock nests inside coordJob.mu (statusOf holds j.mu
// then takes prog.mu); nothing takes j.mu while holding prog.mu.
type shardProgress struct {
	mu    sync.Mutex
	units map[int]*shardUnitInfo
	order []int
	durs  []time.Duration // completed unit wall times; p90 hedge input
}

func newShardProgress(plan []core.ShardUnit) *shardProgress {
	p := &shardProgress{units: make(map[int]*shardUnitInfo, len(plan))}
	for _, u := range plan {
		p.units[u.Seq] = &shardUnitInfo{shardUnitStatus: shardUnitStatus{Unit: u, State: "pending"}}
		p.order = append(p.order, u.Seq)
	}
	return p
}

func (p *shardProgress) markRunning(seq int, worker string, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.units[seq]
	if u == nil || u.State == "done" {
		return
	}
	u.State = "running"
	u.Worker = worker
	u.Attempts++
	if u.startedAt.IsZero() {
		u.startedAt = now
	}
}

func (p *shardProgress) markDone(seq int, worker string, dur time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.units[seq]
	if u == nil {
		return
	}
	u.State = "done"
	if worker != "" {
		u.Worker = worker
	}
	if dur > 0 {
		p.durs = append(p.durs, dur)
	}
}

func (p *shardProgress) markFailed(seq int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if u := p.units[seq]; u != nil && u.State != "done" {
		u.State = "failed"
	}
}

func (p *shardProgress) markHedged(seq int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if u := p.units[seq]; u != nil {
		u.Hedged = true
	}
}

// currentWorker is the worker a unit is (or was last) running on — the
// one a hedge should avoid.
func (p *shardProgress) currentWorker(seq int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if u := p.units[seq]; u != nil {
		return u.Worker
	}
	return ""
}

// stragglers returns the running, not-yet-hedged units whose age has
// reached factor × p90 of completed unit durations, and how long until
// the next one's does (noTimer: none will). No threshold exists until
// minDone units have completed — hedging needs evidence of what
// "normal" looks like before calling anything a straggler.
func (p *shardProgress) stragglers(now time.Time, minDone int, factor float64) (due []int, next time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	next = noTimer
	if len(p.durs) < minDone {
		return nil, next
	}
	d := append([]time.Duration(nil), p.durs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	thr := time.Duration(factor * float64(d[len(d)*9/10]))
	if thr <= 0 {
		return nil, next
	}
	for seq, u := range p.units {
		if u.State != "running" || u.Hedged || u.startedAt.IsZero() {
			continue
		}
		if left := thr - now.Sub(u.startedAt); left <= 0 {
			due = append(due, seq)
		} else if next == noTimer || left < next {
			next = left
		}
	}
	sort.Ints(due)
	return due, next
}

func (p *shardProgress) snapshot() *shardStatusView {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := &shardStatusView{Total: len(p.order)}
	for _, seq := range p.order {
		u := p.units[seq]
		v.Units = append(v.Units, u.shardUnitStatus)
		switch u.State {
		case "done":
			v.Done++
		case "failed":
			v.Failed++
		}
		if u.Hedged {
			v.Hedged++
		}
	}
	return v
}

// shardOutcome is one runner's verdict on one unit attempt chain.
type shardOutcome struct {
	seq    int
	hedge  bool
	worker string
	dur    time.Duration
	frames []server.ShardResultFrame
	err    error
}

// fastaBaseCount totals the bases in a normalized FASTA text — the
// query length shard planning splits.
func fastaBaseCount(fasta string) (int, error) {
	seqs, err := genome.ReadFASTA(strings.NewReader(fasta))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, s := range seqs {
		n += len(s.Bases)
	}
	return n, nil
}

// runShardJob is the scatter/gather state machine for one job: plan (or
// adopt the journaled plan), adopt units a previous incarnation already
// completed, scatter the rest as independent runners, gather
// first-result-wins, hedge stragglers, then merge deterministically.
func (c *Coordinator) runShardJob(j *coordJob, rec *recoveredRouting) {
	defer c.wg.Done()

	queryLen, err := fastaBaseCount(j.queryFASTA)
	if err != nil {
		c.finalize(j, server.JobFailed, fmt.Sprintf("shard planning: %v", err))
		return
	}
	var plan []core.ShardUnit
	if rec != nil && len(rec.shardPlan) > 0 {
		plan = rec.shardPlan
	} else {
		// The plan is journaled before any dispatch so a restarted
		// coordinator reuses the identical decomposition — unit seq
		// numbers must mean the same ranges across incarnations.
		// Planning uses the default seeding geometry; shard dispatch
		// assumes workers run the same (chunk-aligned ranges only
		// partition the candidate space when the chunk size matches).
		pcfg := core.DefaultConfig()
		pcfg.BothStrands = !j.Spec.ForwardOnly
		plan = core.PlanShards(&pcfg, queryLen, c.cfg.ShardUnits)
		if err := c.wal.shardPlanned(j, plan); err != nil {
			c.log.Error("journaling shard plan failed", "job_id", j.ID, "err", err)
		}
	}
	if len(plan) == 0 {
		c.finalize(j, server.JobFailed, "shard planning produced no units")
		return
	}
	prog := newShardProgress(plan)
	j.mu.Lock()
	j.shard = prog
	j.state = server.JobRunning
	j.mu.Unlock()

	unitBySeq := make(map[int]core.ShardUnit, len(plan))
	for _, u := range plan {
		unitBySeq[u.Seq] = u
	}

	// Adopt results a previous incarnation journaled: a done record
	// implies readable frames (spill-before-journal), but an unreadable
	// spill degrades to re-dispatch rather than failure.
	results := make(map[int][]server.ShardResultFrame, len(plan))
	if rec != nil {
		for _, seq := range rec.shardDone {
			if _, ok := unitBySeq[seq]; !ok {
				continue
			}
			data, err := c.wal.loadShardFrames(j.ID, seq)
			if err != nil {
				c.log.Warn("spilled shard frames unreadable; re-dispatching unit",
					"job_id", j.ID, "seq", seq, "err", err)
				continue
			}
			var frames []server.ShardResultFrame
			if err := json.Unmarshal(data, &frames); err != nil {
				c.log.Warn("spilled shard frames corrupt; re-dispatching unit",
					"job_id", j.ID, "seq", seq, "err", err)
				continue
			}
			results[seq] = frames
			prog.markDone(seq, "", 0)
			c.c.shardRecovered.Inc()
		}
		if len(results) > 0 {
			c.log.Info("recovered shard results from journal",
				"job_id", j.ID, "done", len(results), "total", len(plan))
		}
	}

	// Every runner reports at most one outcome (then a token the gather
	// loop can wait on) and each unit has at most two runners (primary +
	// hedge), so neither send blocks, even after the gather loop exits.
	resultCh := make(chan shardOutcome, 2*len(plan))
	arrived := make(chan struct{}, 2*len(plan))
	report := func(o shardOutcome) {
		resultCh <- o
		arrived <- struct{}{}
	}
	// sem holds one token per allowed in-flight unit: a runner takes one
	// (through wait, so the take is interruptible) and puts it back.
	sem := make(chan struct{}, c.cfg.ShardParallel)
	for i := 0; i < cap(sem); i++ {
		sem <- struct{}{}
	}
	stops := make(map[int]chan struct{}, len(plan))
	stopped := make(map[int]bool, len(plan))
	runners := make(map[int]int, len(plan))
	pending := 0
	for _, u := range plan {
		if _, done := results[u.Seq]; done {
			continue
		}
		pending++
		stops[u.Seq] = make(chan struct{})
		runners[u.Seq] = 1
		c.wg.Add(1)
		go c.runShardUnit(j, prog, u, false, sem, stops[u.Seq], report)
	}
	stopAll := func() {
		for seq, ch := range stops {
			if !stopped[seq] {
				stopped[seq] = true
				close(ch)
			}
		}
	}

	// Stragglers are looked for on every unit outcome and at the instant
	// the next one is due: a stream of completions cannot starve the hedge.
	var failed []core.ShardUnit
	for pending > 0 {
		due, next := prog.stragglers(c.cfg.Clock.Now(), c.cfg.ShardHedgeMinDone, c.cfg.ShardHedgeFactor)
		for _, seq := range due {
			if stopped[seq] || runners[seq] > 1 {
				continue
			}
			runners[seq]++
			prog.markHedged(seq)
			c.c.shardHedged.Inc()
			c.recordFlight(j, obs.FlightShardHedged, prog.currentWorker(seq),
				fmt.Sprintf("unit %s past straggler threshold; speculative re-dispatch", unitBySeq[seq]))
			c.wg.Add(1)
			go c.runShardUnit(j, prog, unitBySeq[seq], true, sem, stops[seq], report)
		}
		switch c.wait(next, j.cancelCh, arrived) {
		case wokeTimer:
			continue
		case wokeCancelled:
			stopAll()
			c.finalize(j, server.JobCancelled, "cancelled by client")
			return
		case wokeShutdown:
			stopAll()
			return // journal carries the job into the next incarnation
		}
		out := <-resultCh
		runners[out.seq]--
		if out.err != nil {
			if _, done := results[out.seq]; !done && runners[out.seq] <= 0 {
				// Every runner for this unit is out of retries: the
				// unit degrades the job to a partial result instead
				// of failing it.
				pending--
				prog.markFailed(out.seq)
				c.c.shardFailed.Inc()
				failed = append(failed, unitBySeq[out.seq])
				c.recordFlight(j, obs.FlightShardFailed, out.worker,
					fmt.Sprintf("unit %s exhausted retries: %v", unitBySeq[out.seq], out.err))
				c.log.Warn("shard unit failed permanently",
					"job_id", j.ID, "unit", unitBySeq[out.seq].String(), "err", out.err)
			}
			continue
		}
		if _, dup := results[out.seq]; dup {
			// The hedge twin finished second: first result won.
			c.c.shardDuplicate.Inc()
			continue
		}
		results[out.seq] = out.frames
		pending--
		if !stopped[out.seq] {
			stopped[out.seq] = true
			close(stops[out.seq])
		}
		prog.markDone(out.seq, out.worker, out.dur)
		c.c.shardMerged.Inc()
		c.recordFlight(j, obs.FlightShardMerged, out.worker,
			fmt.Sprintf("unit %s: %d frames", unitBySeq[out.seq], len(out.frames)))
		// Spill-before-journal, same invariant as the query
		// artifact: a done record implies readable frames. A failed
		// spill (disk full) skips the record — the in-memory result
		// still merges; only a restart would redo the unit.
		if c.wal != nil {
			if data, merr := json.Marshal(out.frames); merr == nil {
				if err := c.wal.saveShardFrames(j.ID, out.seq, data); err != nil {
					c.log.Warn("spilling shard frames failed; a restart re-dispatches this unit",
						"job_id", j.ID, "seq", out.seq, "err", err)
				} else if err := c.wal.shardDone(j, out.seq, out.worker, c.cfg.Clock.Now()); err != nil {
					c.log.Error("journaling shard completion failed",
						"job_id", j.ID, "seq", out.seq, "err", err)
				}
			}
		}
	}
	stopAll()
	c.finishShardJob(j, plan, results, failed)
}

// runShardUnit owns one unit's retry chain: pick a worker, execute the
// unit synchronously under its lease, back off and move to the next
// replica on failure. Exactly one outcome is sent unless the unit was
// settled elsewhere (stop) or the job ended.
func (c *Coordinator) runShardUnit(j *coordJob, prog *shardProgress, u core.ShardUnit, hedge bool,
	sem chan struct{}, stop <-chan struct{}, report func(shardOutcome)) {
	defer c.wg.Done()
	attempts := c.cfg.Retry.Attempts()
	seed := j.ID + "/" + strconv.Itoa(u.Seq)
	if hedge {
		seed += "/hedge"
	}
	var lastErr error
	var lastWorker string
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 && c.wait(c.cfg.Retry.Backoff(attempt-1, hash64(seed)), stop, nil) != wokeTimer {
			return
		}
		if c.fenced.Load() {
			report(shardOutcome{seq: u.Seq, hedge: hedge,
				err: fmt.Errorf("coordinator fenced at epoch %d", c.epoch)})
			return
		}
		avoid := lastWorker
		if avoid == "" && hedge {
			avoid = prog.currentWorker(u.Seq)
		}
		changed := c.ms.changedCh() // before the pick it guards: no change is missed
		m := c.pickShardWorker(j.Target, u.Seq, attempt, avoid)
		if m == nil {
			// No eligible replica right now: park WITHOUT charging the
			// attempt — a breaker cool-down or a membership change
			// (re-register, lease handoff) can rescue the unit, and
			// burning the retry budget on parks would fail units whose
			// only worker is merely briefly breaker-open. Like a parked
			// whole job it re-checks on a membership change or after a
			// lease. The park is bounded by one lease plus one breaker
			// cool-down so a target nobody holds still consumes an
			// attempt and the unit eventually fails.
			lastErr = fmt.Errorf("no live replica holds target %q", j.Target)
			deadline := c.cfg.Clock.Now().Add(c.cfg.LeaseTTL + c.cfg.BreakerCooldown)
			for m == nil && c.cfg.Clock.Now().Before(deadline) {
				if woke := c.wait(c.cfg.LeaseTTL, stop, changed); woke == wokeCancelled || woke == wokeShutdown {
					return
				}
				changed = c.ms.changedCh()
				m = c.pickShardWorker(j.Target, u.Seq, attempt, avoid)
			}
			if m == nil {
				continue
			}
		}
		switch {
		case attempt == 1 && !hedge:
			c.c.shardDispatched.Inc()
			c.recordFlight(j, obs.FlightShardDispatched, m.ID, "unit "+u.String())
		case attempt > 1:
			if _, live := c.ms.alive(lastWorker); lastWorker != "" && !live && m.ID != lastWorker {
				c.c.shardFailedOver.Inc()
				c.recordFlight(j, obs.FlightShardFailedOver, m.ID,
					fmt.Sprintf("unit %s: worker %s lost; attempt %d", u, lastWorker, attempt))
			} else {
				c.c.shardRetried.Inc()
				c.recordFlight(j, obs.FlightShardRetried, m.ID,
					fmt.Sprintf("unit %s attempt %d", u, attempt))
			}
		}
		if c.wait(noTimer, stop, sem) != wokeSignal {
			return
		}
		prog.markRunning(u.Seq, m.ID, c.cfg.Clock.Now())
		start := c.cfg.Clock.Now()
		frames, err := c.dispatchShardTo(j, m, u, stop)
		dur := c.cfg.Clock.Now().Sub(start)
		sem <- struct{}{}
		lastWorker = m.ID
		if err == nil {
			report(shardOutcome{seq: u.Seq, hedge: hedge, worker: m.ID, dur: dur, frames: frames})
			return
		}
		lastErr = err
		c.log.Warn("shard unit attempt failed", "job_id", j.ID, "unit", u.String(),
			"worker", m.ID, "attempt", attempt, "err", err)
	}
	report(shardOutcome{seq: u.Seq, hedge: hedge, worker: lastWorker, err: lastErr})
}

// pickShardWorker chooses a worker for one unit attempt: every worker
// advertising the target, rotated by unit seq — spreading a job's units
// across the fleet — and by attempt, so retries move to the next
// replica, with avoid last (a hedge lands on a different worker than the
// straggler, a retry leaves the worker that just failed, unless it is
// the only one left); the first the breaker allows wins.
func (c *Coordinator) pickShardWorker(target string, seq, attempt int, avoid string) *Member {
	for _, m := range c.ms.preference(target, 0, seq+attempt-1, avoid) {
		if _, ok := c.brk.Allow(m.ID); ok {
			return m
		}
	}
	return nil
}

// dispatchShardTo executes one work unit on one worker synchronously.
// The in-flight request is the unit's lease: ShardLease bounds it on
// the coordinator's clock, and stop (hedge twin won, job over) aborts
// it early. A 200 whose body dies mid-frame (connection cut, injected
// truncation) is a decode error — the unit is idempotent, so the caller
// just retries.
func (c *Coordinator) dispatchShardTo(j *coordJob, m *Member, u core.ShardUnit, stop <-chan struct{}) ([]server.ShardResultFrame, error) {
	sr, err := workerCall[server.ShardResponse](c, workerReq{
		worker: m.ID, method: http.MethodPost, url: m.Addr + "/v1/shards",
		body: server.ShardRequest{
			Target:      j.Target,
			Fingerprint: j.Fingerprint,
			QueryFASTA:  j.queryFASTA,
			QueryName:   j.QueryName,
			JobSpec:     j.Spec,
			JobID:       j.ID,
			TraceID:     j.TraceID,
			Unit:        u,
		},
		traceID: j.TraceID, cancel: stop, timeout: c.cfg.ShardLease, want: http.StatusOK,
	})
	if err != nil {
		return nil, fmt.Errorf("unit %s: %w", u, err)
	}
	return sr.Frames, nil
}

// finishShardJob runs the deterministic merge and finalizes. Per
// strand, frames concatenate in plan order (= canonical emission
// order), then MergeShardFrames re-runs the whole-strand absorption
// walk the one-shot pipeline would have run, and the kept blocks render
// strand-major '+' then '-' — byte-identical to a single-worker MAF.
// Failed units make the result partial (206-style status), not an
// error, unless nothing at all succeeded.
func (c *Coordinator) finishShardJob(j *coordJob, plan []core.ShardUnit,
	results map[int][]server.ShardResultFrame, failed []core.ShardUnit) {
	if len(failed) == len(plan) {
		c.finalize(j, server.JobFailed, fmt.Sprintf("all %d shard units failed", len(plan)))
		return
	}
	var buf bytes.Buffer
	mw := maf.NewWriter(&buf)
	absorbBand := core.DefaultConfig().AbsorbBand
	for _, strand := range []byte{'+', '-'} {
		var frames []core.ShardFrame
		var blocks []*maf.Block
		for _, u := range plan {
			if u.Strand != strand {
				continue
			}
			for _, f := range results[u.Seq] {
				frames = append(frames, f.ShardFrame)
				blocks = append(blocks, f.Block)
			}
		}
		keep, _ := core.MergeShardFrames(frames, absorbBand)
		for _, i := range keep {
			if err := mw.Write(blocks[i]); err != nil {
				c.finalize(j, server.JobFailed, fmt.Sprintf("rendering merged MAF: %v", err))
				return
			}
		}
	}
	if err := mw.Close(); err != nil {
		c.finalize(j, server.JobFailed, fmt.Sprintf("rendering merged MAF: %v", err))
		return
	}

	sort.Slice(failed, func(a, b int) bool { return failed[a].Seq < failed[b].Seq })
	var failedNames []string
	for _, u := range failed {
		failedNames = append(failedNames, u.String())
	}
	j.mu.Lock()
	j.mafData = buf.Bytes()
	j.failedShards = failedNames
	if len(failedNames) > 0 {
		j.truncated = shardTruncatedReason
	}
	j.mu.Unlock()
	if c.wal != nil {
		if err := c.wal.saveShardMAF(j.ID, buf.Bytes()); err != nil {
			c.log.Warn("spilling merged MAF failed; result served from memory only",
				"job_id", j.ID, "err", err)
		}
	}
	errMsg := ""
	if len(failedNames) > 0 {
		errMsg = fmt.Sprintf("partial result: %d/%d shard units failed (%s)",
			len(failedNames), len(plan), strings.Join(failedNames, ", "))
	}
	c.finalize(j, server.JobDone, errMsg)
}

// serveShardMAF serves a sharded job's coordinator-merged MAF: wait for
// the merge (there is no partial stream — determinism needs every
// frame), then the whole artifact, 206 when shards were dropped.
func (c *Coordinator) serveShardMAF(w http.ResponseWriter, r *http.Request, j *coordJob) {
	for st, _, _, changed := j.view(); !st.Terminal(); st, _, _, changed = j.view() {
		if c.wait(noTimer, r.Context().Done(), changed) != wokeSignal {
			return
		}
	}
	state, errMsg := j.snapshotState()
	if state != server.JobDone {
		server.WriteError(w, http.StatusGone, "job %s: no MAF (state %s: %s)", j.ID, state, errMsg)
		return
	}
	j.mu.Lock()
	data := j.mafData
	failed := append([]string(nil), j.failedShards...)
	truncated := j.truncated
	j.mu.Unlock()
	if data == nil {
		if c.wal == nil {
			server.WriteError(w, http.StatusGone, "job %s: merged MAF not retained", j.ID)
			return
		}
		loaded, err := c.wal.loadShardMAF(j.ID)
		if err != nil {
			server.WriteError(w, http.StatusBadGateway, "job %s: merged MAF artifact unreadable: %v", j.ID, err)
			return
		}
		data = loaded
		j.mu.Lock()
		j.mafData = data
		j.mu.Unlock()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Job-ID", j.ID)
	code := http.StatusOK
	if len(failed) > 0 {
		w.Header().Set("X-Truncated", truncated)
		w.Header().Set("X-Failed-Shards", strings.Join(failed, ","))
		code = http.StatusPartialContent
	}
	w.WriteHeader(code)
	w.Write(data) //nolint:errcheck // response committed
}
