// Package experiments regenerates every table and figure of the
// paper's evaluation (Section VI). Each experiment is a function over a
// Lab, which caches generated species pairs and pipeline runs so that a
// full `-run all` does not repeat the expensive whole genome
// alignments. The experiment index (which paper artifact each function
// reproduces, with workloads and module mapping) lives in DESIGN.md.
package experiments

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"darwinwga/internal/chain"
	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/hw"
)

// Options configures a Lab.
type Options struct {
	// Scale is the genome scale relative to the paper's Table I sizes
	// (default 0.004, i.e. 400-550 Kbp genomes; the paper's are ~100x
	// larger). Larger scales sharpen the statistics and stretch the
	// runtimes.
	Scale float64
	// Workers bounds pipeline goroutines (0 = GOMAXPROCS).
	Workers int
	// Repeats is the number of shuffled-genome repetitions in the noise
	// analysis (the paper uses 3).
	Repeats int
	// Out receives the rendered tables (default os.Stdout).
	Out io.Writer
}

func (o *Options) fillDefaults() {
	if o.Scale <= 0 {
		o.Scale = 0.004
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
	if o.Out == nil {
		o.Out = os.Stdout
	}
}

// Lab owns the cached pairs and runs.
type Lab struct {
	opts Options

	mu    sync.Mutex
	pairs map[string]*evolve.Pair
	runs  map[string]*PairRun
}

// NewLab creates a lab.
func NewLab(opts Options) *Lab {
	opts.fillDefaults()
	return &Lab{
		opts:  opts,
		pairs: make(map[string]*evolve.Pair),
		runs:  make(map[string]*PairRun),
	}
}

// Options returns the lab's (defaults-filled) options.
func (l *Lab) Options() Options { return l.opts }

// Out returns the output writer.
func (l *Lab) Out() io.Writer { return l.opts.Out }

// Pair returns (generating and caching on first use) one of the
// standard species pairs.
func (l *Lab) Pair(name string) (*evolve.Pair, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.pairs[name]; ok {
		return p, nil
	}
	cfg, ok := evolve.StandardPair(name, l.opts.Scale)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown pair %q", name)
	}
	p, err := evolve.Generate(cfg)
	if err != nil {
		return nil, err
	}
	l.pairs[name] = p
	return p, nil
}

// Mode selects the aligner configuration of a run.
type Mode string

const (
	// ModeDarwin is Darwin-WGA (gapped filtering, Table II defaults).
	ModeDarwin Mode = "darwin-wga"
	// ModeLASTZ is the LASTZ baseline (ungapped filtering, 3000
	// thresholds).
	ModeLASTZ Mode = "lastz"
)

// PairRun is one cached pipeline execution.
type PairRun struct {
	Pair   *evolve.Pair
	Config core.Config
	Result *core.Result
	// Chains are the AXTCHAIN-style chains, best first.
	Chains []chain.Chain
	// GACTX is the exact replay of the run's extension tiles on the FPGA's
	// and the ASIC's arrays (Tables V and VI price extension with it).
	GACTX *hw.GACTXReplay
	// WallSeconds is the measured end-to-end software time (the local
	// equivalent of Table V's runtime column).
	WallSeconds float64

	rcOnce sync.Once
	rc     []byte // reverse complement of the query, for '-' HSPs
}

// ModeConfig returns the pipeline configuration for a mode.
func (l *Lab) ModeConfig(mode Mode) core.Config {
	var cfg core.Config
	if mode == ModeLASTZ {
		cfg = core.LASTZConfig()
	} else {
		cfg = core.DefaultConfig()
	}
	cfg.Workers = l.opts.Workers
	return cfg
}

// Run executes (and caches) a pipeline over a standard pair.
func (l *Lab) Run(pairName string, mode Mode) (*PairRun, error) {
	key := pairName + "/" + string(mode)
	l.mu.Lock()
	if r, ok := l.runs[key]; ok {
		l.mu.Unlock()
		return r, nil
	}
	l.mu.Unlock()

	p, err := l.Pair(pairName)
	if err != nil {
		return nil, err
	}
	run, err := ExecuteRun(p, l.ModeConfig(mode))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s %s: %w", pairName, mode, err)
	}

	l.mu.Lock()
	l.runs[key] = run
	l.mu.Unlock()
	return run, nil
}

// Both returns the cached Darwin-WGA and LASTZ runs of a standard pair.
func (l *Lab) Both(pairName string) (darwin, lastz *PairRun, err error) {
	if darwin, err = l.Run(pairName, ModeDarwin); err == nil {
		lastz, err = l.Run(pairName, ModeLASTZ)
	}
	return darwin, lastz, err
}

// ExecuteRun aligns a pair under cfg, measuring wall time, replaying the
// extension tiles on the accelerator arrays (it owns cfg.TileHook) and
// building chains. Exposed so ablations can
// run non-standard configurations without the cache.
func ExecuteRun(p *evolve.Pair, cfg core.Config) (*PairRun, error) {
	gactx := hw.NewGACTXReplay(hw.FPGA(), hw.ASIC())
	cfg.TileHook = gactx.Tile
	start := time.Now()
	aligner, err := core.NewAligner(p.TargetSeq(), cfg)
	if err != nil {
		return nil, err
	}
	res, err := aligner.Align(p.QuerySeq())
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	return &PairRun{
		Pair:        p,
		Config:      cfg,
		Result:      res,
		Chains:      chain.BuildHSPs(res.HSPs, chain.DefaultOptions()),
		GACTX:       gactx,
		WallSeconds: wall,
	}, nil
}

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	Name  string
	Title string
	Run   func(*Lab) error
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: species and assembly sizes", Table1},
		{"table2", "Table II: Darwin-WGA parameters", Table2},
		{"table3", "Table III: sensitivity comparison", Table3},
		{"table4", "Table IV: ASIC area and power breakdown", Table4},
		{"table5", "Table V: runtimes, workload, perf/$ and perf/W", Table5},
		{"table6", "Table VI: platform power", Table6},
		{"fig2", "Figure 2: ungapped block size distribution", Fig2},
		{"fig8", "Figure 8: phylogenetic distances", Fig8},
		{"fig9", "Figure 9: alignment found by Darwin-WGA, missed by LASTZ", Fig9},
		{"fig10", "Figure 10: GACT vs GACT-X quality and throughput", Fig10},
		{"fpr", "Section VI-B: false positive rate (noise) analysis", FPR},
		{"truth", "Ground-truth recall/precision (simulator-only extension)", Truth},
		{"hfsweep", "Ablation: filter threshold Hf sensitivity/cost sweep", HfSweep},
	}
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
