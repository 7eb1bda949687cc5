package experiments

import (
	"fmt"

	"darwinwga/internal/core"
	"darwinwga/internal/evolve"
	"darwinwga/internal/hw"
	"darwinwga/internal/stats"
)

// Table5Row is the performance comparison for one species pair.
type Table5Row struct {
	Pair string
	// LASTZSeconds is the measured runtime of the LASTZ baseline here.
	LASTZSeconds float64
	// Workload of the Darwin-WGA run.
	Workload core.Workload
	// IsoSWSeconds models iso-sensitive software on the paper's CPU
	// baseline (gapped-filter tiles at the Parasail rate).
	IsoSWSeconds float64
	// LocalIsoSWSeconds is this machine's measured Darwin-WGA software
	// runtime (our pipeline IS the iso-sensitive software).
	LocalIsoSWSeconds float64
	// FPGASeconds and ASICSeconds are cycle-model estimates.
	FPGASeconds float64
	ASICSeconds float64
	// FPGAPerfPerDollar and ASICPerfPerWatt are the improvement metrics
	// against the modeled iso-sensitive software.
	FPGAPerfPerDollar float64
	ASICPerfPerWatt   float64
}

// Table5Data is the full performance comparison.
type Table5Data struct {
	Rows []Table5Row
}

// RunTable5 computes Table V. The software side is measured (our
// pipeline at both configurations); the hardware side comes from the
// systolic cycle model — the filter's closed-form tile cycles and the
// exact replay of the extension tiles that ran — with the iso-sensitive
// CPU baseline normalized to the paper's measured Parasail throughput so
// the improvement factors are comparable to the paper's.
func RunTable5(l *Lab) (*Table5Data, error) {
	data := &Table5Data{}
	cfg := core.DefaultConfig()
	for _, name := range evolve.StandardPairNames {
		dRun, zRun, err := l.Both(name)
		if err != nil {
			return nil, err
		}
		w := dRun.Result.Workload
		t := dRun.Result.Timings
		seedSec := t.Seeding.Seconds()

		// The paper's workload is ~100/scale times ours; scale the
		// seeding software time the same way hardware tile counts scale
		// so that per-pair ratios are size-independent.
		row := Table5Row{Pair: name, LASTZSeconds: zRun.WallSeconds, Workload: w}
		row.LocalIsoSWSeconds = dRun.WallSeconds
		row.IsoSWSeconds = hw.IsoSensitiveSoftwareSeconds(w, 0, seedSec, t.Extension.Seconds())

		fpga, err := hw.FPGA().Estimate(w, dRun.GACTX, seedSec, cfg.FilterTileSize, cfg.FilterBand)
		if err != nil {
			return nil, err
		}
		asic, err := hw.ASIC().Estimate(w, dRun.GACTX, seedSec, cfg.FilterTileSize, cfg.FilterBand)
		if err != nil {
			return nil, err
		}
		row.FPGASeconds = fpga.TotalSeconds()
		row.ASICSeconds = asic.TotalSeconds()
		row.FPGAPerfPerDollar = hw.PerfPerDollar(row.IsoSWSeconds, hw.CPU(), row.FPGASeconds, hw.FPGA())
		row.ASICPerfPerWatt = hw.PerfPerWatt(row.IsoSWSeconds, hw.CPU(), row.ASICSeconds, hw.ASIC())
		data.Rows = append(data.Rows, row)
	}
	return data, nil
}

// Table5 renders the performance comparison (paper Table V).
func Table5(l *Lab) error {
	data, err := RunTable5(l)
	if err != nil {
		return err
	}
	out := l.Out()
	fmt.Fprintln(out, "Table V: runtimes, workload, and improvement metrics")
	fmt.Fprintln(out, "(paper shapes: iso-sensitive software ~135-225x slower than LASTZ;")
	fmt.Fprintln(out, " FPGA 19-24x perf/$ and ASIC ~1,500x perf/W over iso-sensitive software)")
	fmt.Fprintln(out)
	tbl := stats.NewTable("Species pair", "LASTZ (s)", "Seeds", "Filter tiles", "Ext tiles",
		"Iso-SW (s)", "FPGA (s)", "ASIC (s)", "FPGA perf/$", "ASIC perf/W")
	for _, r := range data.Rows {
		tbl.AddRow(r.Pair,
			fmt.Sprintf("%.1f", r.LASTZSeconds),
			stats.Comma(r.Workload.SeedHits),
			stats.Comma(r.Workload.FilterTiles),
			stats.Comma(r.Workload.ExtensionTiles),
			fmt.Sprintf("%.1f", r.IsoSWSeconds),
			fmt.Sprintf("%.2f", r.FPGASeconds),
			fmt.Sprintf("%.2f", r.ASICSeconds),
			fmt.Sprintf("%.1fx", r.FPGAPerfPerDollar),
			fmt.Sprintf("%.0fx", r.ASICPerfPerWatt))
	}
	fmt.Fprintln(out, tbl)
	fmt.Fprintln(out, "Iso-SW: gapped-filter tiles at the paper's Parasail rate (225K tiles/s")
	fmt.Fprintln(out, "on c4.8xlarge) plus measured seeding and extension software time.")
	// The paper's workload is filter-dominated (its tile counts per bp
	// are ~100x ours because of its far denser seeding); in that regime
	// the ASIC improvement reduces to the rate and power ratios alone.
	cpu := hw.CPU()
	asicP := hw.ASIC()
	pipeCfg := core.DefaultConfig()
	filterOnly := (asicP.BSWThroughput(pipeCfg.FilterTileSize, pipeCfg.FilterBand) / hw.PaperSWBSWTileRate) *
		(cpu.PowerW / asicP.PowerW)
	fmt.Fprintf(out, "Filter-stage-only ASIC perf/W (the paper's filter-dominated regime): %.0fx\n", filterOnly)
	fmt.Fprintf(out, "Local measured iso-sensitive software runtimes (this machine): ")
	for i, r := range data.Rows {
		if i > 0 {
			fmt.Fprint(out, ", ")
		}
		fmt.Fprintf(out, "%s %.1fs", r.Pair, r.LocalIsoSWSeconds)
	}
	fmt.Fprintln(out)
	return nil
}

// Table4 renders the ASIC area/power breakdown (paper Table IV).
func Table4(l *Lab) error {
	out := l.Out()
	fmt.Fprintln(out, "Table IV: ASIC area and power breakdown (TSMC 40nm, 1 GHz)")
	fmt.Fprintln(out)
	comps := hw.ASICBreakdown(64, 12, 64)
	tbl := stats.NewTable("Component", "Configuration", "Area (mm2)", "Power (W)")
	for _, c := range comps {
		area := "-"
		if c.AreaMM2 > 0 {
			area = fmt.Sprintf("%.2f", c.AreaMM2)
		}
		tbl.AddRow(c.Name, c.Config, area, fmt.Sprintf("%.2f", c.PowerW))
	}
	area, power := hw.Totals(comps)
	tbl.AddRow("Total", "", fmt.Sprintf("%.2f", area), fmt.Sprintf("%.2f", power))
	_, err := fmt.Fprintln(out, tbl)
	return err
}

// Table6 renders the platform power comparison (paper Table VI) and the
// Section V-D provisioning check behind the ASIC's array counts: DRAM
// bandwidth, not compute, is the bottleneck the paper provisions for.
func Table6(l *Lab) error {
	out := l.Out()
	fmt.Fprintln(out, "Table VI: power (including DRAM) of the three platforms")
	fmt.Fprintln(out)
	tbl := stats.NewTable("Platform", "Power (W)")
	for _, p := range []hw.Platform{hw.CPU(), hw.FPGA(), hw.ASIC()} {
		tbl.AddRow(p.Name, fmt.Sprintf("%.0f", p.PowerW))
	}
	fmt.Fprintln(out, tbl)
	// The GACT-X rate is the replayed one of the most distant pair's tiles.
	run, err := l.Run("ce11-cb4", ModeDarwin)
	if err != nil {
		return err
	}
	asic, mem, cfg := hw.ASIC(), hw.DDR4x2400R4(), run.Config
	cycles, err := run.GACTX.Cycles(asic)
	if err != nil {
		return err
	}
	d := hw.BandwidthDemand(asic, cfg.FilterTileSize, cfg.FilterBand, cfg.Extension.TileSize, run.GACTX.Tiles, cycles)
	_, err = fmt.Fprintf(out, "ASIC DRAM demand at full rate: BSW %.1f GB/s + GACT-X %.2f GB/s = %.0f%% of the %.1f GB/s\n"+
		"four DDR4-2400R channels sustain (paper: 44.8 + 1.15 GB/s); that budget feeds %d BSW arrays (paper: 64)\n",
		d.BSWBytesPerSec/1e9, d.GACTXBytesPerSec/1e9, 100*hw.Utilization(mem, d), mem.EffectiveBandwidth()/1e9,
		hw.ProvisionBSWArrays(mem, asic.Array, cfg.FilterTileSize, cfg.FilterBand, d.GACTXBytesPerSec))
	return err
}
