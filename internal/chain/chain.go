// Package chain implements AXTCHAIN-style chaining (Kent et al., PNAS
// 2003) of local alignments into maximally-scoring ordered chains, the
// post-processing step both LASTZ and Darwin-WGA outputs go through
// before sensitivity is measured (Section II). Gap costs follow the
// UCSC "loose" linear-gap schedule (axtChain -linearGap=loose).
package chain

import (
	"fmt"
	"sort"

	"darwinwga/internal/core"
)

// Block is one local alignment to be chained. Coordinates are half-open
// in the (target, query) coordinate space of a single strand; callers
// chain each strand separately.
type Block struct {
	TStart, TEnd int
	QStart, QEnd int
	// Score is the alignment's own score.
	Score int32
	// Matches counts identical base pairs in the alignment (used by the
	// paper's matched-base-pair sensitivity metric).
	Matches int
	// UngappedBlocks holds the lengths of the alignment's maximal
	// gap-free runs (Figure 2's statistic); optional.
	UngappedBlocks []int
}

// Chain is an ordered, co-linear sequence of blocks with a combined
// score (block scores minus inter-block gap costs).
type Chain struct {
	Blocks []*Block
	Score  int64
}

// Matches sums matched base pairs over the chain's blocks.
func (c *Chain) Matches() int {
	n := 0
	for _, b := range c.Blocks {
		n += b.Matches
	}
	return n
}

// TStart/TEnd and QStart/QEnd return the chain's extent.
func (c *Chain) TStart() int { return c.Blocks[0].TStart }
func (c *Chain) TEnd() int   { return c.Blocks[len(c.Blocks)-1].TEnd }
func (c *Chain) QStart() int { return c.Blocks[0].QStart }
func (c *Chain) QEnd() int   { return c.Blocks[len(c.Blocks)-1].QEnd }

// Options configures chaining.
type Options struct {
	// MaxGap is the largest target or query gap bridged between blocks.
	MaxGap int
	// MaxPredecessors bounds the DP scan per block (0 = unbounded); the
	// nearest predecessors by target end are considered first.
	MaxPredecessors int
	// MinScore drops chains scoring below this from the output.
	MinScore int64
}

// DefaultOptions mirror axtChain's practical behaviour at our genome
// scale.
func DefaultOptions() Options {
	return Options{MaxGap: 100000, MaxPredecessors: 500, MinScore: 1000}
}

// looseGap is the axtChain -linearGap=loose piecewise-linear gap cost
// schedule (qGap/tGap for one-sided gaps, bothGap for double-sided).
var looseGapSizes = []int{1, 2, 3, 11, 111, 2111, 12111, 32111, 72111, 152111, 252111}
var looseGapOne = []int64{350, 425, 450, 600, 900, 2900, 22900, 57900, 117900, 217900, 317900}
var looseGapBoth = []int64{750, 825, 850, 1000, 1300, 3300, 23300, 58300, 118300, 218300, 318300}

// GapCost returns the cost of bridging a target gap dt and query gap dq
// between consecutive chain blocks. Negative gaps (overlaps) are not
// allowed by the chaining DP and cost "infinity" here.
func GapCost(dt, dq int) int64 {
	if dt < 0 || dq < 0 {
		return 1 << 60
	}
	if dt == 0 && dq == 0 {
		return 0
	}
	size := max(dt, dq)
	table := looseGapOne
	if dt > 0 && dq > 0 {
		table = looseGapBoth
	}
	return interpolate(looseGapSizes, table, size)
}

// interpolate evaluates the piecewise-linear schedule at size,
// extrapolating the final segment's slope beyond the table.
func interpolate(sizes []int, costs []int64, size int) int64 {
	if size <= sizes[0] {
		return costs[0]
	}
	n := len(sizes)
	if size >= sizes[n-1] {
		slope := float64(costs[n-1]-costs[n-2]) / float64(sizes[n-1]-sizes[n-2])
		return costs[n-1] + int64(slope*float64(size-sizes[n-1]))
	}
	i := sort.SearchInts(sizes, size)
	// sizes[i-1] < size <= sizes[i]
	frac := float64(size-sizes[i-1]) / float64(sizes[i]-sizes[i-1])
	return costs[i-1] + int64(frac*float64(costs[i]-costs[i-1]))
}

// Build chains the blocks and returns chains sorted by descending score.
// Each block is assigned to exactly one chain. Blocks must all be on
// the same strand.
func Build(blocks []*Block, opts Options) []Chain {
	if len(blocks) == 0 {
		return nil
	}
	// Sort by target start (ties: query start) — the DP order.
	sorted := make([]*Block, len(blocks))
	copy(sorted, blocks)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].TStart != sorted[j].TStart {
			return sorted[i].TStart < sorted[j].TStart
		}
		return sorted[i].QStart < sorted[j].QStart
	})

	n := len(sorted)
	best := make([]int64, n) // best chain score ending at i
	prev := make([]int, n)   // predecessor index or -1
	for i := range sorted {
		best[i] = int64(sorted[i].Score)
		prev[i] = -1
	}
	for i := 1; i < n; i++ {
		bi := sorted[i]
		scanned := 0
		for j := i - 1; j >= 0; j-- {
			bj := sorted[j]
			if opts.MaxPredecessors > 0 {
				scanned++
				if scanned > opts.MaxPredecessors {
					break
				}
			}
			dt := bi.TStart - bj.TEnd
			dq := bi.QStart - bj.QEnd
			if dt < 0 || dq < 0 || dt > opts.MaxGap || dq > opts.MaxGap {
				continue
			}
			cand := best[j] + int64(bi.Score) - GapCost(dt, dq)
			if cand > best[i] {
				best[i] = cand
				prev[i] = j
			}
		}
	}

	// Greedy extraction: highest-scoring chain end first; a block may
	// appear in only one chain.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return best[order[a]] > best[order[b]] })
	used := make([]bool, n)
	var chains []Chain
	for _, end := range order {
		if used[end] {
			continue
		}
		// Walk predecessors; a chain truncates where it meets a block
		// already claimed by a higher-scoring chain.
		var rev []*Block
		for i := end; i >= 0 && !used[i]; i = prev[i] {
			used[i] = true
			rev = append(rev, sorted[i])
		}
		for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
			rev[l], rev[r] = rev[r], rev[l]
		}
		// Recompute the (possibly truncated) chain's score exactly.
		score := int64(rev[0].Score)
		for k := 1; k < len(rev); k++ {
			dt := rev[k].TStart - rev[k-1].TEnd
			dq := rev[k].QStart - rev[k-1].QEnd
			score += int64(rev[k].Score) - GapCost(dt, dq)
		}
		if score >= opts.MinScore {
			chains = append(chains, Chain{Blocks: rev, Score: score})
		}
	}
	sort.Slice(chains, func(a, b int) bool { return chains[a].Score > chains[b].Score })
	return chains
}

// BuildHSPs chains a pipeline run's alignments, each query strand on its
// own, and returns all chains sorted by descending score (equal scores
// keep '+' before '-'). A block takes its matched-base count from the HSP,
// which the pipeline tallied when it committed the alignment.
func BuildHSPs(hsps []core.HSP, opts Options) []Chain {
	var byStrand [2][]*Block
	for i := range hsps {
		h := &hsps[i]
		si := 0
		if h.Strand == '-' {
			si = 1
		}
		byStrand[si] = append(byStrand[si], &Block{
			TStart: h.TStart, TEnd: h.TEnd,
			QStart: h.QStart, QEnd: h.QEnd,
			Score:          h.Score,
			Matches:        h.Matches,
			UngappedBlocks: h.UngappedBlocks(),
		})
	}
	chains := append(Build(byStrand[0], opts), Build(byStrand[1], opts)...)
	sort.SliceStable(chains, func(i, j int) bool { return chains[i].Score > chains[j].Score })
	return chains
}

// TopScores returns the scores of the k highest-scoring chains (fewer if
// there are fewer chains).
func TopScores(chains []Chain, k int) []int64 {
	out := make([]int64, 0, k)
	for i := 0; i < len(chains) && i < k; i++ {
		out = append(out, chains[i].Score)
	}
	return out
}

// TotalMatches sums matched base pairs over all chains — the paper's
// Table III "Matched Base-Pairs Counts" metric.
func TotalMatches(chains []Chain) int {
	n := 0
	for i := range chains {
		n += chains[i].Matches()
	}
	return n
}

// SumTopScores sums the top-k chain scores; Table III's "Top 10 chain
// scores" comparisons use k=10.
func SumTopScores(chains []Chain, k int) int64 {
	var sum int64
	for _, s := range TopScores(chains, k) {
		sum += s
	}
	return sum
}

// Validate checks chain invariants: blocks strictly ordered and
// non-overlapping in both coordinates. Tests use it as an oracle.
func (c *Chain) Validate() error {
	if len(c.Blocks) == 0 {
		return fmt.Errorf("chain: empty chain")
	}
	for k := 1; k < len(c.Blocks); k++ {
		a, b := c.Blocks[k-1], c.Blocks[k]
		if b.TStart < a.TEnd || b.QStart < a.QEnd {
			return fmt.Errorf("chain: blocks %d and %d overlap: T %d<%d or Q %d<%d",
				k-1, k, b.TStart, a.TEnd, b.QStart, a.QEnd)
		}
	}
	return nil
}
