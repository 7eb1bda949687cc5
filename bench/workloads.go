package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/genome"
	"darwinwga/internal/shuffle"
)

// topology says how a workload reaches the pipeline.
type topology int

const (
	library topology = iota // core.Aligner called directly
	worker                  // one server.New worker behind HTTP
	coord                   // cluster.New coordinator + 2 workers, whole-job routing
	shard                   // the same with ShardDispatch: ["*"]
)

// spec is one workload. The species pair is always the repository's
// standard pair at its standard seed; --seed changes how the pair is
// presented (where the circular query is cut, the submission order, which
// windows are resubmitted), never how much homology there is to find. The
// README's "Seeds" section gives the measurements behind that choice.
type spec struct {
	name, why string
	topo      topology
	pair      string
	scale     float64
	lastz     bool // core.LASTZConfig() instead of core.DefaultConfig()
	decoys    int  // doublet-shuffled copies of the target appended as extra chromosomes
	windows   int  // contiguous windows the query is cut into; 1 = one-shot
	resubmits int  // windows sent a second time, after their original completed

	// The stage the workload exists to load, and the share of Align time
	// it must take for the workload to still mean what its name says.
	wantStage string
	wantShare float64
}

var specs = []spec{
	{
		name: "wga-gapped", topo: library, pair: "dm6-droYak2", scale: 0.0004, windows: 1,
		why: "library one-shot, gapped filter, both strands: the paper's headline configuration, BSW and GACT-X both busy",
	},
	{
		name: "decoy-target", topo: library, pair: "dm6-dp4", scale: 0.0001, decoys: 127, windows: 1,
		wantStage: "filter", wantShare: 0.70,
		why: "distant pair plus shuffled decoy chromosomes: nearly every candidate is noise, so the BSW filter dominates",
	},
	{
		name: "close-ungapped", topo: library, pair: "dm6-droSim1", scale: 0.0005, lastz: true, windows: 1,
		wantStage: "extend", wantShare: 0.90,
		why: "close pair under the ungapped LASTZ filter: almost all time is single-threaded GACT-X extension",
	},
	{
		name: "serve-worker", topo: worker, pair: "dm6-droYak2", scale: 0.0005, windows: 16, resubmits: 4,
		why: "query cut into windows and sent to one HTTP worker, some twice: admission, queue, streaming, cache hit vs miss",
	},
	{
		name: "serve-coord", topo: coord, pair: "dm6-droYak2", scale: 0.00025, windows: 6, resubmits: 2,
		why: "the same windows through a coordinator and two workers, whole-job routing: the hop, the poll, the MAF proxy",
	},
	{
		name: "serve-shard", topo: shard, pair: "dm6-droYak2", scale: 0.00015, windows: 6,
		why: "shard dispatch on: every job scattered as strand x range units and merged, un-absorbed extension in each unit",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) pipeline() core.Config {
	if s.lastz {
		return core.LASTZConfig()
	}
	return core.DefaultConfig()
}

// job is one unit of client-visible work: a window of the rotated query,
// aligned against the whole target.
type job struct {
	window     int // index into inputs.windows
	resubmitOf int // index into inputs.jobs of the original, or -1
}

// window is a contiguous slice [lo, hi) of the rotated query.
type window struct {
	lo, hi int
	name   string
}

// inputs is everything a run feeds the program, derived from (spec, seed).
type inputs struct {
	spec   spec
	seed   int64
	pair   *evolve.Pair
	target *genome.Assembly // pair target plus decoy chromosomes
	rot    int              // rotated[i] = original[(i+rot) % len]
	query  []byte           // the rotated query
	wins   []window
	jobs   []job
	warm   window // a quarter of the first job's window: the untimed warm-up job
}

// buildInputs generates the pair and the seeded job list.
func buildInputs(s spec, seed int64) (*inputs, error) {
	cfg, ok := evolve.StandardPair(s.pair, s.scale)
	if !ok {
		return nil, fmt.Errorf("unknown pair %q", s.pair)
	}
	pair, err := evolve.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", s.pair, err)
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: s, seed: seed, pair: pair}

	in.target = &genome.Assembly{Name: pair.Target.Name, Seqs: append([]*genome.Sequence(nil), pair.Target.Seqs...)}
	for d := 0; d < s.decoys; d++ {
		// Decoys carry no homology by construction; their shuffle is
		// fixed so the amount of noise does not depend on --seed.
		drng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(d)))
		in.target.Seqs = append(in.target.Seqs, &genome.Sequence{
			Name:  fmt.Sprintf("decoy%02d", d),
			Bases: shuffle.Doublet(pair.TargetSeq(), drng),
		})
	}

	// A one-shot query is cut at a seeded point of the circle. A windowed
	// query keeps its cut points, or the seed would decide which
	// alignments a window boundary splits; there the seed orders the jobs.
	q := pair.QuerySeq()
	if s.windows == 1 {
		in.rot = rng.Intn(len(q))
	}
	in.query = append(append(make([]byte, 0, len(q)), q[in.rot:]...), q[:in.rot]...)

	w := (len(q) + s.windows - 1) / s.windows
	for i := 0; i < s.windows; i++ {
		lo, hi := i*w, min((i+1)*w, len(q))
		in.wins = append(in.wins, window{lo: lo, hi: hi, name: fmt.Sprintf("%s_w%02d", pair.Query.Seqs[0].Name, i)})
	}
	in.jobs = jobList(rng, s.windows, s.resubmits)
	first := in.wins[in.jobs[0].window]
	in.warm = window{lo: first.lo, hi: first.lo + (first.hi-first.lo)/4, name: "warmup"}
	return in, nil
}

// jobList orders the windows by a seeded permutation and appends the
// resubmissions. A resubmission repeats a window from the first half of
// the order, so its original is normally long done when its turn comes; the
// client still waits for the original before sending it.
func jobList(rng *rand.Rand, windows, resubmits int) []job {
	var jobs []job
	for _, w := range rng.Perm(windows) {
		jobs = append(jobs, job{window: w, resubmitOf: -1})
	}
	for _, i := range rng.Perm(max(windows/2, 1))[:min(resubmits, max(windows/2, 1))] {
		jobs = append(jobs, job{window: jobs[i].window, resubmitOf: i})
	}
	return jobs
}

// bases returns the query bases of a window.
func (in *inputs) bases(w window) []byte { return in.query[w.lo:w.hi] }

// assembly is the query assembly a job over the window submits.
func (in *inputs) assembly(w window) *genome.Assembly {
	return &genome.Assembly{Name: in.pair.Query.Name, Seqs: []*genome.Sequence{
		{Name: w.name, Bases: in.bases(w)},
	}}
}

// fasta renders the window as the inline FASTA a submission carries.
func (in *inputs) fasta(w window) string {
	var buf bytes.Buffer
	genome.WriteFASTA(&buf, in.assembly(w).Seqs, 60) //nolint:errcheck // bytes.Buffer
	return buf.String()
}

// queryBases is the number of query bases one pass over the job list
// completes, resubmissions included.
func (in *inputs) queryBases() int {
	n := 0
	for _, j := range in.jobs {
		n += in.wins[j.window].hi - in.wins[j.window].lo
	}
	return n
}

// digest fingerprints the generated inputs and the job list.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, s := range in.target.Seqs {
		h.Write([]byte(s.Name)) //nolint:errcheck // hash.Hash never fails
		h.Write(s.Bases)        //nolint:errcheck
	}
	h.Write(in.query) //nolint:errcheck
	for _, j := range in.jobs {
		fmt.Fprintf(h, "|%d,%d", j.window, j.resubmitOf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
