package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
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
// the coordinator does not route a job to one worker: it runs it in two
// phases over one unit-dispatch machinery. Phase 1 scatters the filter:
// strand × chunk-aligned-range units (core.PlanShards) across every
// worker advertising the target, each returning its range's filter
// survivors. As soon as a strand's filter units have all settled, phase
// 2 sends the strand's gathered anchors to one worker as one extension
// unit, which extends them once behind the real absorber and returns the
// committed alignments as MAF blocks in commit order. The MAF is the '+'
// blocks then the '-' blocks: byte-identical to a one-shot run because
// phase 2 *is* the one-shot extension stage over the same anchors. A
// unit of either kind has its own lease (the in-flight HTTP request,
// bounded by ShardLease), retry/failover loop, straggler hedge with
// first-result-wins dedup (units are idempotent: pure functions of
// fingerprint + query + unit) and journaled completion record, so a
// coordinator restart re-dispatches only unfinished units. Units that
// exhaust retries degrade the job into a partial result, not a failure.

// shardTruncatedReason marks a partial result in job status: the job
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
	Unit      core.ShardUnit `json:"unit"`
	State     string         `json:"state"` // pending | running | done | failed
	Worker    string         `json:"worker,omitempty"`
	Attempts  int            `json:"attempts,omitempty"`
	Hedged    bool           `json:"hedged,omitempty"`
	startedAt time.Time      // first dispatch, the straggler clock
}

// shardStatusView is the shard map exposed on job status. FilterMS and
// ExtendMS are the phases' walls: first dispatch to last settle.
type shardStatusView struct {
	Total    int               `json:"total"`
	Done     int               `json:"done"`
	Failed   int               `json:"failed"`
	Hedged   int               `json:"hedged"`
	FilterMS int64             `json:"filter_ms"`
	ExtendMS int64             `json:"extend_ms"`
	Units    []shardUnitStatus `json:"units"`
}

// shardPhase is what the units of one kind have shown so far.
type shardPhase struct {
	durs        []time.Duration // completed unit wall times; p90 hedge input
	first, last time.Time       // first dispatch, last settle
}

// shardProgress tracks per-unit state (indexed by the dense unit seq) for
// status reporting and hedge decisions. Its lock nests inside coordJob.mu
// (statusOf holds j.mu then takes prog.mu), never the other way round.
type shardProgress struct {
	mu     sync.Mutex
	units  []shardUnitStatus
	phases map[bool]*shardPhase // by ShardUnit.Extend
}

func newShardProgress(units []core.ShardUnit) *shardProgress {
	p := &shardProgress{phases: map[bool]*shardPhase{false: {}, true: {}}}
	for _, u := range units {
		p.units = append(p.units, shardUnitStatus{Unit: u, State: "pending"})
	}
	return p
}

func (p *shardProgress) markRunning(seq int, worker string, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := &p.units[seq]
	if u.State == "done" {
		return
	}
	u.State = "running"
	u.Worker = worker
	u.Attempts++
	if u.startedAt.IsZero() {
		u.startedAt = now
	}
	if ph := p.phases[u.Unit.Extend]; ph.first.IsZero() {
		ph.first = now
	}
}

// markSettled closes a unit's account as done or failed.
func (p *shardProgress) markSettled(seq int, state, worker string, dur time.Duration, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := &p.units[seq]
	u.State = state
	if worker != "" {
		u.Worker = worker
	}
	ph := p.phases[u.Unit.Extend]
	ph.last = now
	if dur > 0 {
		ph.durs = append(ph.durs, dur)
	}
}

func (p *shardProgress) markHedged(seq int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.units[seq].Hedged = true
}

// currentWorker is the worker a unit is (or was last) running on — the
// one a hedge should avoid.
func (p *shardProgress) currentWorker(seq int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.units[seq].Worker
}

// A running unit is a straggler — speculatively re-dispatched once,
// first result wins — past hedgeFactor × p90 of the completed durations
// of units of its own kind, once hedgeMinDone of them have completed.
const (
	hedgeFactor  = 2
	hedgeMinDone = 3
)

// stragglers returns the running, not-yet-hedged stragglers and how long
// until the next unit becomes one (noTimer: none will). A kind has no
// threshold until hedgeMinDone of its units have completed: hedging
// needs evidence of what "normal" looks like, and a cheap filter unit is
// no evidence about an extension unit.
func (p *shardProgress) stragglers(now time.Time) (due []int, next time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	next = noTimer
	thr := map[bool]time.Duration{}
	for kind, ph := range p.phases {
		if len(ph.durs) >= hedgeMinDone {
			d := slices.Clone(ph.durs)
			slices.Sort(d)
			thr[kind] = hedgeFactor * d[len(d)*9/10]
		}
	}
	for seq, u := range p.units {
		if u.State != "running" || u.Hedged || u.startedAt.IsZero() || thr[u.Unit.Extend] <= 0 {
			continue
		}
		if left := thr[u.Unit.Extend] - now.Sub(u.startedAt); left <= 0 {
			due = append(due, seq)
		} else if next == noTimer || left < next {
			next = left
		}
	}
	return due, next
}

func (p *shardProgress) snapshot() *shardStatusView {
	p.mu.Lock()
	defer p.mu.Unlock()
	wall := func(ph *shardPhase) int64 {
		if ph.first.IsZero() { // nothing dispatched: every unit adopted from the journal
			return 0
		}
		return max(0, ph.last.Sub(ph.first).Milliseconds())
	}
	v := &shardStatusView{Total: len(p.units), FilterMS: wall(p.phases[false]), ExtendMS: wall(p.phases[true]),
		Units: slices.Clone(p.units)}
	for _, u := range p.units {
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
	worker string
	dur    time.Duration
	res    *server.ShardResponse
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

// runShardJob is the two-phase state machine for one job: plan the
// filter units (or adopt the journaled plan), derive the extension units,
// adopt units a previous incarnation completed, scatter the rest, gather
// first-result-wins, hedge stragglers, then concatenate the blocks.
func (c *Coordinator) runShardJob(j *coordJob, rec *recoveredRouting) {
	defer c.wg.Done()

	queryLen, err := fastaBaseCount(j.query())
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
		// numbers must mean the same units across incarnations. It uses
		// the default seeding geometry; a worker whose chunk size
		// differs refuses the unit (422).
		pcfg := core.DefaultConfig()
		pcfg.BothStrands = !j.Spec.ForwardOnly
		plan = core.PlanShards(&pcfg, queryLen, c.cfg.ShardUnits)
		if err := c.wal.append(ckKindShardPlan, ckShardPlan{ID: j.ID, Units: plan}); err != nil {
			c.log.Error("journaling shard plan failed", "job_id", j.ID, "err", err)
		}
	}
	if len(plan) == 0 {
		c.finalize(j, server.JobFailed, "shard planning produced no units")
		return
	}
	ext := core.ExtensionUnits(plan)
	units := slices.Concat(plan, ext)
	prog := newShardProgress(units)
	j.mu.Lock()
	j.shard = prog
	j.state = server.JobRunning
	j.mu.Unlock()

	// Everything per unit is indexed by its seq: units is dense in it.
	results := make([]*server.ShardResponse, len(units))
	// strandAnchors gathers what a strand's settled filter units passed.
	strandAnchors := func(strand byte) (anchors []core.ExtensionAnchor, arrived bool) {
		for _, u := range plan {
			if r := results[u.Seq]; r != nil && u.Strand == strand {
				anchors, arrived = append(anchors, r.Anchors...), true
			}
		}
		return anchors, arrived
	}

	// Every runner reports at most one outcome (then a token the gather
	// loop can wait on) and each unit has at most two runners (primary +
	// hedge), so neither send blocks, even after the gather loop exits.
	resultCh := make(chan shardOutcome, 2*len(units))
	arrived := make(chan struct{}, 2*len(units))
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
	stops := make([]chan struct{}, len(units)) // closed once the unit is settled, or the job over
	stopped := make([]bool, len(units))
	runners := make([]int, len(units))
	stop := func(seq int) {
		if !stopped[seq] {
			stopped[seq] = true
			close(stops[seq])
		}
	}
	launch := func(u core.ShardUnit, hedge bool) {
		var anchors []core.ExtensionAnchor
		if u.Extend {
			anchors, _ = strandAnchors(u.Strand)
		}
		runners[u.Seq]++
		c.wg.Add(1)
		go c.runShardUnit(j, prog, u, anchors, hedge, sem, stops[u.Seq], report)
	}

	// Adopt results a previous incarnation journaled, launch the rest: a
	// done record implies a readable spill (spill-before-journal), but one
	// that is unreadable or not this unit's (journals older than the
	// two-phase plan kept frames under another name) degrades to
	// re-dispatch. An extension result counts only with all of its
	// strand's filter results — one of them may have been failed then, and
	// is retried now — and an extension unit starts here only if they were
	// all adopted.
	pending := len(units)         // units not yet settled
	openFilters := map[byte]int{} // of them, filter units, per strand
	for _, u := range units {
		stops[u.Seq] = make(chan struct{})
		if rec != nil && slices.Contains(rec.shardDone, u.Seq) && !(u.Extend && openFilters[u.Strand] > 0) {
			var res server.ShardResponse
			data, err := c.wal.files.Get(ownUnits.Rel(j.ID, unitFile(u.Seq)))
			if err == nil {
				err = json.Unmarshal(data, &res)
			}
			if err == nil && res.Unit != u {
				err = fmt.Errorf("spill holds unit %s", res.Unit)
			}
			if err == nil {
				results[u.Seq] = &res
				pending--
				stop(u.Seq)
				prog.markSettled(u.Seq, "done", "", 0, c.cfg.Clock.Now())
				c.c.shardRecovered.Inc()
				continue
			}
			c.log.Warn("spilled shard result unusable; re-dispatching unit",
				"job_id", j.ID, "unit", u.String(), "err", err)
		}
		if !u.Extend {
			openFilters[u.Strand]++
		}
		if !u.Extend || openFilters[u.Strand] == 0 {
			launch(u, false)
		}
	}
	if pending < len(units) {
		c.log.Info("recovered shard results from journal",
			"job_id", j.ID, "done", len(units)-pending, "total", len(units))
	}

	// settle closes unit u's account; err is set when every runner for it
	// is out of retries — the unit then degrades the job to a partial
	// result. A strand's last filter unit to settle starts the strand's
	// extension on the anchors that arrived, without waiting for the other
	// strand; if none arrived the extension unit fails with them.
	var failed []core.ShardUnit
	var settle func(u core.ShardUnit, worker string, err error)
	settle = func(u core.ShardUnit, worker string, err error) {
		pending--
		stop(u.Seq)
		if err != nil {
			prog.markSettled(u.Seq, "failed", "", 0, c.cfg.Clock.Now())
			c.c.shardFailed.Inc()
			failed = append(failed, u)
			c.recordFlight(j, obs.FlightShardFailed, worker,
				fmt.Sprintf("%s unit %s exhausted retries: %v", u.Kind(), u, err))
			c.log.Warn("shard unit failed permanently", "job_id", j.ID, "unit", u.String(), "err", err)
		}
		if !u.Extend {
			openFilters[u.Strand]--
		}
		if u.Extend || openFilters[u.Strand] > 0 {
			return
		}
		for _, x := range ext {
			if x.Strand != u.Strand || results[x.Seq] != nil {
				continue
			}
			if _, ok := strandAnchors(x.Strand); ok {
				launch(x, false)
			} else {
				settle(x, "", errors.New("every filter unit of the strand failed"))
			}
		}
	}

	// Stragglers are looked for on every unit outcome and at the instant
	// the next one is due: a stream of completions cannot starve the hedge.
	for pending > 0 {
		due, next := prog.stragglers(c.cfg.Clock.Now())
		for _, seq := range due {
			if stopped[seq] || runners[seq] > 1 {
				continue
			}
			prog.markHedged(seq)
			c.c.shardHedged.Inc()
			c.recordFlight(j, obs.FlightShardHedged, prog.currentWorker(seq),
				fmt.Sprintf("%s unit %s past straggler threshold; speculative re-dispatch", units[seq].Kind(), units[seq]))
			launch(units[seq], true)
		}
		switch c.wait(next, j.cancelCh, arrived) {
		case wokeTimer:
			continue
		case wokeCancelled:
			c.finalize(j, server.JobCancelled, "cancelled by client")
			fallthrough
		case wokeShutdown: // the journal carries an unfinished job into the next incarnation
			for seq := range stops {
				stop(seq)
			}
			return
		}
		out := <-resultCh
		u := units[out.seq]
		runners[out.seq]--
		switch {
		case out.err != nil:
			if results[out.seq] == nil && runners[out.seq] <= 0 {
				settle(u, out.worker, out.err)
			}
			continue
		case results[out.seq] != nil:
			// The hedge twin finished second: first result won.
			c.c.shardDuplicate.Inc()
			continue
		}
		results[out.seq] = out.res
		prog.markSettled(out.seq, "done", out.worker, out.dur, c.cfg.Clock.Now())
		c.c.shardMerged.Inc()
		c.recordFlight(j, obs.FlightShardMerged, out.worker,
			fmt.Sprintf("%s unit %s: %d anchors, %d blocks", u.Kind(), u, len(out.res.Anchors), len(out.res.Blocks)))
		// Spill-before-journal, same invariant as the query artifact: a
		// done record implies a readable result. A failed spill (disk
		// full) skips the record — the in-memory result still counts;
		// only a restart would redo the unit.
		if c.wal != nil {
			if data, merr := json.Marshal(out.res); merr == nil {
				if err := c.wal.files.Put(ownUnits.Rel(j.ID, unitFile(out.seq)), data); err != nil {
					c.log.Warn("spilling shard result failed; a restart re-dispatches this unit",
						"job_id", j.ID, "seq", out.seq, "err", err)
				} else if err := c.wal.append(ckKindShardDone, ckShardDone{ID: j.ID, Seq: out.seq, WorkerID: out.worker,
					AtNS: c.cfg.Clock.Now().UnixNano()}); err != nil {
					c.log.Error("journaling shard completion failed",
						"job_id", j.ID, "seq", out.seq, "err", err)
				}
			}
		}
		settle(u, out.worker, nil)
	}
	c.finishShardJob(j, units, results, failed)
}

// runShardUnit owns one unit's retry chain: pick a worker, execute the
// unit synchronously under its lease, back off and move to the next
// replica on failure (a 422 refusal is one more failed attempt). Exactly
// one outcome is sent unless the unit was settled elsewhere (stop) or the
// job ended.
func (c *Coordinator) runShardUnit(j *coordJob, prog *shardProgress, u core.ShardUnit, anchors []core.ExtensionAnchor,
	hedge bool, sem chan struct{}, stop <-chan struct{}, report func(shardOutcome)) {
	defer c.wg.Done()
	attempts := workerRetry.Attempts()
	seed := j.ID + "/" + strconv.Itoa(u.Seq)
	if hedge {
		seed += "/hedge"
	}
	name := u.Kind() + " unit " + u.String()
	var lastErr error
	var lastWorker string
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 && c.wait(workerRetry.Backoff(attempt-1, hash64(seed)), stop, nil) != wokeTimer {
			return
		}
		if c.fenced.Load() {
			report(shardOutcome{seq: u.Seq, err: fmt.Errorf("coordinator fenced at epoch %d", c.epoch)})
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
			deadline := c.cfg.Clock.Now().Add(c.cfg.LeaseTTL + c.cfg.breakerCooldown())
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
			c.recordFlight(j, obs.FlightShardDispatched, m.ID, name)
		case attempt > 1:
			if lastWorker != "" && !c.ms.alive(lastWorker) && m.ID != lastWorker {
				c.c.shardFailedOver.Inc()
				c.recordFlight(j, obs.FlightShardFailedOver, m.ID,
					fmt.Sprintf("%s: worker %s lost; attempt %d", name, lastWorker, attempt))
			} else {
				c.c.shardRetried.Inc()
				c.recordFlight(j, obs.FlightShardRetried, m.ID,
					fmt.Sprintf("%s attempt %d", name, attempt))
			}
		}
		if c.wait(noTimer, stop, sem) != wokeSignal {
			return
		}
		prog.markRunning(u.Seq, m.ID, c.cfg.Clock.Now())
		start := c.cfg.Clock.Now()
		res, err := c.dispatchShardTo(j, m, u, anchors, stop)
		dur := c.cfg.Clock.Now().Sub(start)
		sem <- struct{}{}
		lastWorker = m.ID
		if err == nil {
			report(shardOutcome{seq: u.Seq, worker: m.ID, dur: dur, res: res})
			return
		}
		lastErr = err
		c.log.Warn("shard unit attempt failed", "job_id", j.ID, "unit", u.String(),
			"worker", m.ID, "attempt", attempt, "err", err)
	}
	report(shardOutcome{seq: u.Seq, worker: lastWorker, err: lastErr})
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
// it early. A 200 whose body dies mid-way is a decode error — the unit
// is idempotent, so the caller just retries. The result is stamped with
// the unit asked for: the tag its spill is recognised by after a restart.
func (c *Coordinator) dispatchShardTo(j *coordJob, m *Member, u core.ShardUnit, anchors []core.ExtensionAnchor,
	stop <-chan struct{}) (*server.ShardResponse, error) {
	sr, err := workerCall[server.ShardResponse](c, workerReq{
		worker: m.ID, method: http.MethodPost, url: m.Addr + "/v1/shards",
		body: server.ShardRequest{
			Target:      j.Target,
			Fingerprint: j.Fingerprint,
			QueryFASTA:  j.query(),
			QueryName:   j.QueryName,
			JobSpec:     j.Spec,
			JobID:       j.ID,
			TraceID:     j.TraceID,
			Unit:        u,
			Anchors:     anchors,
		},
		traceID: j.TraceID, cancel: stop, timeout: c.cfg.ShardLease, want: http.StatusOK,
	})
	if err != nil {
		return nil, fmt.Errorf("unit %s: %w", u, err)
	}
	sr.Unit = u
	return &sr, nil
}

// finishShardJob assembles the result and finalizes: the extension
// units' blocks, already in commit order, strand-major '+' then '-' —
// the one-shot MAF — and the units' workloads summed into the job's.
// Failed units make the result partial (206-style status), not an
// error, unless nothing at all succeeded.
func (c *Coordinator) finishShardJob(j *coordJob, units []core.ShardUnit,
	results []*server.ShardResponse, failed []core.ShardUnit) {
	if len(failed) == len(units) {
		c.finalize(j, server.JobFailed, fmt.Sprintf("all %d shard units failed", len(units)))
		return
	}
	var buf bytes.Buffer
	var wl core.Workload
	mw := maf.NewWriter(&buf)
	var err error
	for _, u := range units { // filter units carry no blocks; extension units follow in strand order
		if r := results[u.Seq]; r != nil {
			wl.Add(r.Workload)
			for _, b := range r.Blocks {
				err = errors.Join(err, mw.Write(b))
			}
		}
	}
	if err = errors.Join(err, mw.Close()); err != nil {
		c.finalize(j, server.JobFailed, fmt.Sprintf("rendering MAF: %v", err))
		return
	}

	sort.Slice(failed, func(a, b int) bool { return failed[a].Seq < failed[b].Seq })
	var failedNames []string
	for _, u := range failed {
		failedNames = append(failedNames, u.String())
	}
	j.mu.Lock()
	j.mafData = buf.Bytes()
	j.workload = &wl
	j.failedShards = failedNames
	if len(failedNames) > 0 {
		j.truncated = shardTruncatedReason
	}
	j.mu.Unlock()
	if c.wal != nil {
		if err := c.wal.files.Put(ownShards.Rel(j.ID, shardMAF), buf.Bytes()); err != nil {
			c.log.Warn("spilling merged MAF failed; result served from memory only",
				"job_id", j.ID, "err", err)
		}
	}
	errMsg := ""
	if len(failedNames) > 0 {
		errMsg = fmt.Sprintf("partial result: %d/%d shard units failed (%s)",
			len(failedNames), len(units), strings.Join(failedNames, ", "))
	}
	c.finalize(j, server.JobDone, errMsg)
}

// serveShardMAF serves a sharded job's coordinator-assembled MAF: wait
// for the job (there is no partial stream — the '-' blocks follow all
// the '+' blocks), then the whole artifact, 206 when shards were dropped.
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
		loaded, err := c.wal.files.Get(ownShards.Rel(j.ID, shardMAF))
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
