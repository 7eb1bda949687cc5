package darwinwga

import (
	"context"
	"fmt"
	"io"

	"darwinwga/internal/chain"
	"darwinwga/internal/core"
	"darwinwga/internal/maf"
)

// Report is the outcome of a whole-assembly alignment: the raw HSPs in
// the concatenated coordinate space, the chains built from them, and
// enough metadata to write MAF with per-sequence names and coordinates.
type Report struct {
	// TargetName and QueryName label the two assemblies.
	TargetName, QueryName string
	// HSPs are all alignments in the pipeline's commit order (best
	// filter score first per strand, '+' before '-'), the order WriteMAF
	// serializes and the serving layer streams; target coordinates
	// address the concatenated target, query coordinates the
	// (strand-oriented) concatenated query.
	HSPs []HSP
	// Chains are the AXTCHAIN-style chains, sorted by descending score.
	Chains []Chain
	// Workload and Timings aggregate the pipeline stages.
	Workload Workload
	Timings  core.Timings
	// Truncated is non-empty when the underlying pipeline run stopped
	// early (cancellation, deadline, budget exhaustion, or dropped
	// shards); the HSPs and chains are then a valid partial result.
	Truncated TruncationReason
	// FailedShards reports the shards dropped after exhausting
	// Config.Retry when Truncated is TruncatedShardFailures.
	FailedShards []*StageError

	target  []byte
	query   []byte
	tMap    *maf.SeqMap
	qMap    *maf.SeqMap
	scoring *Scoring // the run's, for MAF blocks cut at a sequence junction
}

// AlignAssemblies aligns a query assembly against a target assembly:
// the pipeline runs over concatenated sequences, then alignments are
// chained per strand. The target index is built once per call; to
// align many queries against one target, use NewAligner directly.
func AlignAssemblies(target, query *Assembly, cfg Config) (*Report, error) {
	return AlignAssembliesContext(context.Background(), target, query, cfg)
}

// AlignAssembliesContext is AlignAssemblies with cancellation and the
// Config resource budgets. When ctx is cancelled mid-run the partial
// report — with the HSPs and chains completed so far and
// Report.Truncated set — is returned together with ctx.Err(), so
// callers can persist what was computed. Budget exhaustion
// (Config.MaxCandidates, MaxFilterTiles, MaxExtensionCells, Deadline)
// returns a truncated report with a nil error.
//
// A caller-provided cfg.HSPHook fires for each alignment as it is
// produced, in Report.HSPs' order.
func AlignAssembliesContext(ctx context.Context, target, query *Assembly, cfg Config) (*Report, error) {
	rep := &Report{TargetName: target.Name, QueryName: query.Name, scoring: cfg.Scoring}
	var err error
	if rep.target, rep.tMap, err = maf.ConcatAssembly(target.Name, target.Seqs); err != nil {
		return nil, err
	}
	if rep.query, rep.qMap, err = maf.ConcatAssembly(query.Name, query.Seqs); err != nil {
		return nil, err
	}
	aligner, err := core.NewAligner(rep.target, cfg)
	if err != nil {
		return nil, err
	}
	res, alignErr := aligner.AlignContext(ctx, rep.query)
	if res == nil {
		return nil, alignErr
	}
	rep.HSPs = res.HSPs
	rep.Workload = res.Workload
	rep.Timings = res.Timings
	rep.Truncated = res.Truncated
	rep.FailedShards = res.FailedShards
	rep.Chains = chain.BuildHSPs(res.HSPs, chain.DefaultOptions())
	return rep, alignErr
}

// BuildChains chains HSPs per query strand and returns all chains
// sorted by descending score. The sequences are not read: every HSP
// carries its own matched-base count (HSP.Matches).
func BuildChains(hsps []HSP, target, query []byte, opts chain.Options) []Chain {
	return chain.BuildHSPs(hsps, opts)
}

// TotalMatches sums matched base pairs over all chains (Table III's
// matched-base-pairs metric).
func (r *Report) TotalMatches() int { return chain.TotalMatches(r.Chains) }

// TopChainScores returns the scores of the k best chains.
func (r *Report) TopChainScores(k int) []int64 { return chain.TopScores(r.Chains, k) }

// SumTopChainScores sums the k best chain scores (the paper compares
// the top 10).
func (r *Report) SumTopChainScores(k int) int64 { return chain.SumTopScores(r.Chains, k) }

// renderer returns the MAF block renderer over this report's
// concatenated coordinate space — the same renderer the serving layer
// uses to stream blocks.
func (r *Report) renderer() *maf.BlockRenderer {
	return &maf.BlockRenderer{TMap: r.tMap, QMap: r.qMap, Target: r.target, Query: r.query, Scoring: r.scoring}
}

// WriteMAF writes every HSP as a pairwise MAF block with per-sequence
// names and strand-correct query coordinates, in Report.HSPs' order.
func (r *Report) WriteMAF(w io.Writer) error {
	mw := maf.NewWriter(w)
	br := r.renderer()
	for i, h := range r.HSPs {
		blocks, err := br.RenderAlignment(&h.Alignment, h.Strand)
		if err != nil {
			return fmt.Errorf("darwinwga: rendering MAF for HSP %d: %w", i, err)
		}
		for _, b := range blocks {
			if err := mw.Write(b); err != nil {
				return fmt.Errorf("darwinwga: writing MAF for HSP %d: %w", i, err)
			}
		}
	}
	// Close (not Flush) appends the maf.Trailer marker so downstream
	// consumers can tell a complete file from one cut short by a crash.
	return mw.Close()
}
