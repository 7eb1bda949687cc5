package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// sweepFile is what -sweep writes and -agree / -markdown read: every run
// of every workload, with the environment it ran in.
type sweepFile struct {
	Env     envBlock   `json:"env"`
	Seconds float64    `json:"seconds"`
	Runs    []sweepRun `json:"runs"`
}

type sweepRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	WallS    float64 `json:"wall_s"` // the whole process, set-up and verification included
	Result   result  `json:"result"`
}

// benchmarkJSON is the part of BENCHMARK.json the reports need.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var b benchmarkJSON
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &b, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func parseSeeds(s string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.ParseInt(lo, 10, 64)
		b, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", s)
		}
		var out []int64
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
		return out, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// sweepCmd runs each workload once per seed untraced and once traced (on
// the first seed), every run in a process of its own, as the driver does.
func sweepCmd(ctx context.Context, path, seedSpec, only string, seconds float64) int {
	seeds, err := parseSeeds(seedSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := workloadNames()
	if only != "" {
		names = strings.Split(only, ",")
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sf := sweepFile{Env: currentEnv(seeds[0]), Seconds: seconds}
	for _, name := range names {
		if _, ok := specByName(name); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		runs := len(seeds) + 1
		for i := 0; i < runs; i++ {
			seed, trace := seeds[0], i == len(seeds)
			if !trace {
				seed = seeds[i]
			}
			traceArg := "0"
			if trace {
				traceArg = "1"
			}
			t0 := time.Now()
			cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traceArg)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, seed, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: last line is not a result: %v\n", name, seed, err)
				return 1
			}
			sf.Runs = append(sf.Runs, sweepRun{Workload: name, Seed: seed, Trace: trace, WallS: secs(time.Since(t0)), Result: res})
		}
	}
	data, err := json.MarshalIndent(sf, "", " ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printTable(&sf, false)
	return 0
}

func loadSweep(path string) (*sweepFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf sweepFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

// values collects one metric of one workload over the untraced (or traced)
// runs of a sweep.
func (sf *sweepFile) values(workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range sf.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Result.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func (sf *sweepFile) workloads() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range sf.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	return out
}

// printTable prints, per workload and end-to-end metric, the median over
// the seeds and the quartile spread as a share of it.
func printTable(sf *sweepFile, md bool) {
	sep, open, shut := "  ", "", ""
	if md {
		sep, open, shut = " | ", "| ", " |"
		fmt.Printf("Measured on %s, %d CPUs, GOMAXPROCS %d, %d clients, %s, commit %s; %.0f s runs.\n\n",
			sf.Env.CPU, sf.Env.NProc, sf.Env.GOMAXPROCS, sf.Env.Clients, sf.Env.GoVersion, sf.Env.Commit, sf.Seconds)
	}
	row := func(cells ...string) { fmt.Println(open + strings.Join(cells, sep) + shut) }
	row(fmt.Sprintf("%-15s", "workload"), fmt.Sprintf("%-18s", "metric"), fmt.Sprintf("%12s", "median"), "unit ", "spread", " n", "failed")
	if md {
		row("---", "---", "---:", "---", "---:", "---:", "---:")
	}
	for _, w := range sf.workloads() {
		failed := 0
		for _, r := range sf.Runs {
			if r.Workload == w {
				failed += r.Result.Failed
			}
		}
		for _, d := range endToEnd {
			vs := sf.values(w, d.name, false)
			row(fmt.Sprintf("%-15s", w), fmt.Sprintf("%-18s", d.name), fmt.Sprintf("%12.5g", median(vs)),
				fmt.Sprintf("%-5s", d.unit), fmt.Sprintf("%5.1f%%", 100*quartileSpread(vs)), fmt.Sprintf("%2d", len(vs)), strconv.Itoa(failed))
		}
	}
}

func markdownCmd(path string) int {
	sf, err := loadSweep(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printTable(sf, true)
	return 0
}

// agreeCmd compares two sweeps of the same code: for every workload and
// end-to-end metric the medians must lie within the metric's bound of each
// other, and every exact count of the traced runs must be identical.
func agreeCmd(pathA, pathB string) int {
	a, err := loadSweep(pathA)
	if err == nil {
		var b *sweepFile
		if b, err = loadSweep(pathB); err == nil {
			var bj *benchmarkJSON
			if bj, err = loadBenchmarkJSON(); err == nil {
				return agreeReport(os.Stdout, a, b, bj)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func agreeReport(out *os.File, a, b *sweepFile, bj *benchmarkJSON) int {
	var buf bytes.Buffer
	differ := 0
	for _, w := range a.workloads() {
		for _, d := range bj.EndToEnd {
			ma, mb := median(a.values(w, d.Name, false)), median(b.values(w, d.Name, false))
			verdict := "agree"
			if gap := ratio(math.Abs(ma-mb), min(math.Abs(ma), math.Abs(mb))); gap > d.Bound {
				verdict = "DIFFER"
				differ++
			}
			fmt.Fprintf(&buf, "%-15s %-18s %12.5g %12.5g %-5s bound %4.1f%%  %s\n", w, d.Name, ma, mb, d.Unit, 100*d.Bound, verdict)
		}
		ta, tb := tracedRun(a, w), tracedRun(b, w)
		if ta == nil || tb == nil || ta.Seed != tb.Seed {
			continue
		}
		if hedged(ta)+hedged(tb) > 0 {
			// A hedged unit is computed twice, and whether one is hedged
			// depends on timing: the counts of such a pair cannot be
			// expected to match.
			fmt.Fprintf(&buf, "%-15s exact counts not compared: a shard unit was hedged\n", w)
			continue
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			va, vb := ta.Result.Metrics[d.name].Value, tb.Result.Metrics[d.name].Value
			if va != vb {
				differ++
				fmt.Fprintf(&buf, "%-15s %-26s %14.0f %14.0f count  DIFFER\n", w, d.name, va, vb)
			}
		}
	}
	out.Write(buf.Bytes()) //nolint:errcheck // stdout
	if differ > 0 {
		fmt.Fprintf(out, "%d differ\n", differ)
		return 1
	}
	fmt.Fprintln(out, "all agree; exact counts identical")
	return 0
}

func tracedRun(sf *sweepFile, workload string) *sweepRun {
	for i := range sf.Runs {
		if r := &sf.Runs[i]; r.Workload == workload && r.Trace {
			return r
		}
	}
	return nil
}

func hedged(r *sweepRun) float64 {
	return r.Result.Metrics["cluster.shard.hedged"].Value + r.Result.Metrics["cluster.shard.duplicate"].Value
}
