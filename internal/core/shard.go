package core

import (
	"context"
	"errors"
	"fmt"
)

// This file is the work-unit extraction behind the cluster's per-shard
// scatter/gather plane. A sharded job runs in two phases. Phase 1
// scatters the filter: a filter unit is one strand crossed with one
// chunk-aligned query range, executed by FilterShardUnit — the shared
// strand front-end (seedFilter) restricted to the range. Phase 2 gathers
// a strand's survivors and extends them once: an extension unit is
// ExtendAnchors over the union.
//
// Why the split is byte-exact: D-SOFT band counting never straddles a
// chunk boundary, so the candidate multiset over a chunk-aligned range
// is range-local and the union over a partition equals the whole-query
// set; filter verdicts are per-anchor pure functions, so the same holds
// for the survivors. The only whole-strand state is the absorber, which
// is why extension is not scattered: phase 2 sorts the union into the
// canonical order (equal anchors are interchangeable) and from there on
// it is the one-shot code.

// ShardUnit is one scatter/gather work unit. A filter unit is a strand
// crossed with a chunk-aligned query range: QStart/QEnd are half-open
// offsets into the strand-oriented query — for strand '-' they index the
// reverse-complemented query, so a unit is self-contained given the
// original query bases. An extension unit (Extend) spans its strand's
// whole query. Seq is the unit's dense index in its job; the gather
// side uses it as the result key and the hedged-dedup identity.
type ShardUnit struct {
	Seq    int  `json:"seq"`
	Strand byte `json:"strand"`
	QStart int  `json:"q_start"`
	QEnd   int  `json:"q_end"`
	Extend bool `json:"extend,omitempty"`
}

// Kind names the unit's phase in logs and flight events.
func (u ShardUnit) Kind() string {
	if u.Extend {
		return "extension"
	}
	return "filter"
}

// String renders the unit identity used in logs, flight events and a
// job's failed_shards.
func (u ShardUnit) String() string {
	if u.Extend {
		return fmt.Sprintf("%d/%cextend", u.Seq, u.Strand)
	}
	return fmt.Sprintf("%d/%c[%d:%d)", u.Seq, u.Strand, u.QStart, u.QEnd)
}

// PlanShards decomposes a query of queryLen bases into at most
// unitsPerStrand filter units per strand ('+' first, then '-' when
// cfg.BothStrands), each range aligned to cfg.DSoft.ChunkSize so the
// unit-local candidate sets union to the whole-query set. The plan is a
// pure function of (config, queryLen, unitsPerStrand): a coordinator
// can recompute it after a restart and get the same unit identities.
func PlanShards(cfg *Config, queryLen, unitsPerStrand int) []ShardUnit {
	span := shardSpan(queryLen, max(unitsPerStrand, 1), max(cfg.DSoft.ChunkSize, 1))
	strands := []byte{'+'}
	if cfg.BothStrands {
		strands = append(strands, '-')
	}
	var plan []ShardUnit
	seq := 0
	for _, strand := range strands {
		for start := 0; start < queryLen; start += span {
			plan = append(plan, ShardUnit{
				Seq:    seq,
				Strand: strand,
				QStart: start,
				QEnd:   min(start+span, queryLen),
			})
			seq++
		}
	}
	return plan
}

// shardSpan is the one rule that cuts n items into at most parts
// contiguous shards on a grid of unit items: each takes
// ceil(ceil(n/unit)/parts) units, so no shard is left empty that need
// not be. Seeding cuts its query range with it on the D-SOFT chunk (band
// counting then never straddles two workers), PlanShards a query into
// filter units the same way, and the filter cuts its candidates (unit 1).
func shardSpan(n, parts, unit int) int {
	units := (n + unit - 1) / unit
	return (units + parts - 1) / parts * unit
}

// ExtensionUnits derives a filter plan's phase-2 units: one per strand,
// in the plan's strand order, numbered after the filter units. Like the
// plan it is a pure function, so only the plan needs journaling.
func ExtensionUnits(plan []ShardUnit) []ShardUnit {
	var ext []ShardUnit
	for _, u := range plan {
		if n := len(ext); n > 0 && ext[n-1].Strand == u.Strand {
			ext[n-1].QEnd = max(ext[n-1].QEnd, u.QEnd)
			continue
		}
		ext = append(ext, ShardUnit{Seq: len(plan) + len(ext), Strand: u.Strand, QEnd: u.QEnd, Extend: true})
	}
	return ext
}

// ErrShardUnitRefused marks a unit this aligner will not run as asked — a
// budget, a range outside the query or off its seeding chunk grid, an
// anchor outside the sequences: a verdict on the request, not a failure.
var ErrShardUnitRefused = errors.New("core: shard unit refused")

// errBudgetedUnit: a unit is all-or-nothing (its complete result or an
// error), because a truncated unit would silently change the job's
// alignment set. The dispatching layer refuses to shard budgeted jobs;
// the entry points double-check.
var errBudgetedUnit = fmt.Errorf("%w: a unit cannot run under resource budgets or a deadline", ErrShardUnitRefused)

// unitComplete is the all-or-nothing gate of a unit: a contained failure,
// a shard dropped under a retry policy, a cancellation — none leaves a
// partial result, the dispatcher retries the whole unit elsewhere.
func (r *run) unitComplete(what string) error {
	if err := r.err(); err != nil {
		return err
	}
	if r.stopSlow() || r.truncation() != "" {
		if ctxErr := r.ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("core: %s stopped early (%s)", what, r.truncation())
	}
	return nil
}

// FilterShardUnit executes one phase-1 unit: D-SOFT seeding and
// filtering restricted to the strand-oriented query range
// [u.QStart, u.QEnd), returning the survivors in canonical order and the
// range's seed/filter workload. query must already be oriented for
// u.Strand (the caller reverse-complements for '-'). The range must sit
// on this aligner's own chunk grid: the planner may have assumed another
// DSoft.ChunkSize, and an unaligned range seeds a different candidate
// multiset — the job's MAF would quietly stop being the one-shot MAF.
func (a *Aligner) FilterShardUnit(ctx context.Context, query []byte, u ShardUnit) ([]ExtensionAnchor, Workload, error) {
	if a.cfg.budgeted() {
		return nil, Workload{}, errBudgetedUnit
	}
	if u.QStart < 0 || u.QEnd > len(query) || u.QStart >= u.QEnd {
		return nil, Workload{}, fmt.Errorf("%w: range [%d:%d) outside query of %d bases",
			ErrShardUnitRefused, u.QStart, u.QEnd, len(query))
	}
	if chunk := a.cfg.DSoft.ChunkSize; u.QStart%chunk != 0 || (u.QEnd%chunk != 0 && u.QEnd != len(query)) {
		return nil, Workload{}, fmt.Errorf("%w: range [%d:%d) not aligned to the seeding chunk size %d",
			ErrShardUnitRefused, u.QStart, u.QEnd, chunk)
	}
	r, err := a.newRun(ctx, query)
	if err != nil {
		return nil, Workload{}, err
	}
	r.span(u.QEnd - u.QStart)
	defer r.end(0)
	passed, wl, err := a.seedFilter(r, query, u.Strand, u.QStart, u.QEnd, new(Timings))
	if err == nil {
		err = r.unitComplete("shard unit " + u.String())
	}
	if err != nil {
		return nil, Workload{}, err
	}
	return passed, wl, nil
}
