// Hardware: model a whole genome alignment on the paper's FPGA and
// ASIC deployments. The pipeline runs in software to record the
// workload (filter tiles, extension tiles) while a replay prices every
// extension tile it executes on each platform's arrays, then the
// systolic-array cycle model prices the filter workload and derives the
// paper's performance/$ and performance/W improvements.
//
//	go run ./examples/hardware
package main

import (
	"fmt"
	"log"

	"darwinwga"
	"darwinwga/internal/hw"
)

func main() {
	cfg, _ := darwinwga.StandardPair("dm6-dp4", 0.002)
	pair, err := darwinwga.GeneratePair(cfg)
	if err != nil {
		log.Fatal(err)
	}
	platforms := []hw.Platform{hw.FPGA(), hw.ASIC()}
	gactx := hw.NewGACTXReplay(platforms...)
	alignerCfg := darwinwga.DefaultConfig()
	alignerCfg.Extension.TileHook = gactx.Tile
	aligner, err := darwinwga.NewAligner(pair.TargetSeq(), alignerCfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := aligner.Align(pair.QuerySeq())
	if err != nil {
		log.Fatal(err)
	}
	w := res.Workload
	fmt.Printf("workload: %d filter tiles, %d extension tiles\n\n", w.FilterTiles, w.ExtensionTiles)

	seedSec := res.Timings.Seeding.Seconds()
	swSec := hw.IsoSensitiveSoftwareSeconds(w, 0, seedSec, res.Timings.Extension.Seconds())
	fmt.Printf("iso-sensitive software (c4.8xlarge @ 225K tiles/s): %8.2fs\n", swSec)

	for _, platform := range platforms {
		est, err := platform.Estimate(w, gactx, seedSec, alignerCfg.FilterTileSize, alignerCfg.FilterBand)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", platform.Name)
		fmt.Printf("  BSW throughput:    %10.2fM tiles/s\n",
			platform.BSWThroughput(alignerCfg.FilterTileSize, alignerCfg.FilterBand)/1e6)
		fmt.Printf("  filter stage:      %10.3fs\n", est.FilterSeconds)
		fmt.Printf("  extension stage:   %10.3fs\n", est.ExtensionSeconds)
		fmt.Printf("  total runtime:     %10.3fs (%.0fx speedup over iso-sensitive software)\n",
			est.TotalSeconds(), hw.Speedup(swSec, est.TotalSeconds()))
		if platform.PricePerHour > 0 {
			fmt.Printf("  performance/$:     %10.1fx\n",
				hw.PerfPerDollar(swSec, hw.CPU(), est.TotalSeconds(), platform))
		}
		fmt.Printf("  performance/watt:  %10.0fx\n",
			hw.PerfPerWatt(swSec, hw.CPU(), est.TotalSeconds(), platform))
	}

	fmt.Println("\nASIC floorplan (Table IV):")
	comps := hw.ASICBreakdown(64, 12, 64)
	for _, c := range comps {
		fmt.Printf("  %-16s %-24s %6.2f mm2  %6.2f W\n", c.Name, c.Config, c.AreaMM2, c.PowerW)
	}
	area, power := hw.Totals(comps)
	fmt.Printf("  %-16s %-24s %6.2f mm2  %6.2f W\n", "Total", "", area, power)
}
