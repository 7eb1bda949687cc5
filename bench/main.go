// Command bench is the repository's benchmark: six workloads, from a
// one-shot library Align to shard dispatch across in-process workers, each
// built from a seed, run in this process, verified against the simulator's
// ground truth, and reported as named metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
)

// envBlock records where a result was measured.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func currentEnv(seed int64) envBlock {
	commit := os.Getenv("BENCH_COMMIT") // set by run.sh when the checkout is a git repository
	if commit == "" {
		commit = "unknown"
	}
	return envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.NumCPU(), Clients: clients(),
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: commit, Seed: seed,
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/<workload>.trace.json")
	sweep := fs.String("sweep", "", "run every workload over -seeds in fresh processes and write the results to this file")
	seeds := fs.String("seeds", "1-10", "seeds of a -sweep: a range a-b or a comma-separated list")
	only := fs.String("workloads", "", "comma-separated workloads of a -sweep (default: all)")
	agree := fs.Bool("agree", false, "compare two -sweep files given as arguments; exit 1 if any metric differs beyond its bound")
	markdown := fs.String("markdown", "", "print the baseline table of a -sweep file as markdown")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *agree:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -agree takes two sweep files")
			return 2
		}
		return agreeCmd(fs.Arg(0), fs.Arg(1))
	case *markdown != "":
		return markdownCmd(*markdown)
	case *sweep != "":
		return sweepCmd(ctx, *sweep, *seeds, *only, *seconds)
	}

	s, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %s\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(ctx, s, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The env block is a line of its own; the result is the last line.
	env, _ := json.Marshal(map[string]any{"workload": s.name, "env": currentEnv(*seed)})
	fmt.Println(string(env))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}
