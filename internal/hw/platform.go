// Package hw models the three computing platforms of the evaluation —
// the c4.8xlarge CPU baseline, the f1.2xlarge FPGA (Xilinx Virtex
// UltraScale+), and the TSMC 40nm ASIC — and derives the paper's
// performance, cost and power comparisons (Tables IV, V and VI) from
// the systolic cycle model (systolic.go) plus per-unit area/power
// constants.
package hw

import (
	"fmt"

	"darwinwga/internal/core"
)

// Platform describes one accelerator deployment.
type Platform struct {
	Name string
	// Arrays on the device.
	BSWArrays   int
	GACTXArrays int
	// Array is the per-array configuration (NPE, clock).
	Array Array
	// PowerW is total board/chip power including DRAM (Table VI).
	PowerW float64
	// PricePerHour is the cloud price in dollars (0 if not sold hourly).
	PricePerHour float64
}

// FPGA returns the f1.2xlarge deployment of Section VI-C: 50 BSW and 2
// GACT-X arrays, 32 PEs each, at 150 MHz; 65 W; $1.65/hour.
func FPGA() Platform {
	return Platform{
		Name:         "FPGA (f1.2xlarge, Virtex UltraScale+)",
		BSWArrays:    50,
		GACTXArrays:  2,
		Array:        Array{NPE: 32, ClockHz: 150e6},
		PowerW:       65,
		PricePerHour: 1.65,
	}
}

// ASIC returns the TSMC 40nm deployment of Section VI-A: 64 BSW and 12
// GACT-X arrays, 64 PEs each, at 1 GHz; 43.34 W total.
func ASIC() Platform {
	return Platform{
		Name:        "ASIC (TSMC 40nm)",
		BSWArrays:   64,
		GACTXArrays: 12,
		Array:       Array{NPE: 64, ClockHz: 1e9},
		PowerW:      43.34,
	}
}

// CPU returns the software baseline platform (c4.8xlarge: 18 cores / 36
// threads; 215 W including DRAM; $1.59/hour).
func CPU() Platform {
	return Platform{
		Name:         "CPU (c4.8xlarge)",
		PowerW:       215,
		PricePerHour: 1.59,
	}
}

// PaperSWBSWTileRate is the measured Parasail throughput the paper uses
// for the iso-sensitive software baseline: 225K gapped-filter tiles per
// second with all 36 hardware threads busy (Section VI-C).
const PaperSWBSWTileRate = 225e3

// BSWThroughput returns gapped-filter tiles/second across all BSW
// arrays.
func (p Platform) BSWThroughput(tileSize, band int) float64 {
	return float64(p.BSWArrays) * p.Array.BSWTileRate(tileSize, band)
}

// GACTXThroughput returns extension tiles/second across all GACT-X
// arrays on a workload whose tiles replayed to cycles in total.
func (p Platform) GACTXThroughput(tiles, cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(p.GACTXArrays) * float64(tiles) / p.Array.Seconds(cycles)
}

// WGAEstimate is a modeled end-to-end runtime for one whole genome
// alignment on an accelerated platform.
type WGAEstimate struct {
	// SeedingSeconds is software time (D-SOFT runs on the host).
	SeedingSeconds float64
	// FilterSeconds and ExtensionSeconds are accelerator time.
	FilterSeconds    float64
	ExtensionSeconds float64
}

// TotalSeconds sums the stages. Filtering and extension overlap with
// seeding in the real system; summing is the conservative estimate the
// paper also makes.
func (e WGAEstimate) TotalSeconds() float64 {
	return e.SeedingSeconds + e.FilterSeconds + e.ExtensionSeconds
}

// Estimate models the runtime of a recorded workload on this platform.
// gactx is the replay that watched the run's extension tiles: it must
// have seen every one of them, which a run resumed from a checkpoint
// (core.Result.Replayed.ExtensionTiles > 0) has not. seedingSeconds is
// the measured host seeding time; tileSize/band are the filter
// parameters.
func (p Platform) Estimate(w core.Workload, gactx *GACTXReplay, seedingSeconds float64, tileSize, band int) (WGAEstimate, error) {
	if p.BSWArrays == 0 {
		return WGAEstimate{}, fmt.Errorf("hw: %s has no accelerator arrays", p.Name)
	}
	if gactx.Tiles != w.ExtensionTiles {
		return WGAEstimate{}, fmt.Errorf("hw: GACT-X replay saw %d tiles, the workload has %d (a resumed or retried run, or another run's replay)",
			gactx.Tiles, w.ExtensionTiles)
	}
	cycles, err := gactx.Cycles(p)
	if err != nil {
		return WGAEstimate{}, err
	}
	return WGAEstimate{
		SeedingSeconds:   seedingSeconds,
		FilterSeconds:    float64(w.FilterTiles) / p.BSWThroughput(tileSize, band),
		ExtensionSeconds: p.Array.Seconds(cycles) / float64(p.GACTXArrays),
	}, nil
}

// IsoSensitiveSoftwareSeconds is the runtime of software with the same
// sensitivity as Darwin-WGA: the gapped-filter workload executed on the
// CPU baseline at the Parasail tile rate, plus the measured seeding and
// extension software time (Section V-B: "This runtime is obtained using
// the number of gapped filtration tiles required in Darwin-WGA and the
// average tile throughput ... in Parasail").
func IsoSensitiveSoftwareSeconds(w core.Workload, swTileRate float64, seedingSeconds, extensionSeconds float64) float64 {
	if swTileRate <= 0 {
		swTileRate = PaperSWBSWTileRate
	}
	return float64(w.FilterTiles)/swTileRate + seedingSeconds + extensionSeconds
}

// PerfPerDollar returns the performance/$ improvement of running a job
// in accel seconds on p versus sw seconds on the CPU baseline (the
// paper's FPGA metric).
func PerfPerDollar(swSeconds float64, cpu Platform, accelSeconds float64, accel Platform) float64 {
	if accelSeconds <= 0 || accel.PricePerHour <= 0 || cpu.PricePerHour <= 0 {
		return 0
	}
	return (swSeconds * cpu.PricePerHour) / (accelSeconds * accel.PricePerHour)
}

// PerfPerWatt returns the performance/watt improvement (the ASIC
// metric).
func PerfPerWatt(swSeconds float64, cpu Platform, accelSeconds float64, accel Platform) float64 {
	if accelSeconds <= 0 || accel.PowerW <= 0 {
		return 0
	}
	return (swSeconds * cpu.PowerW) / (accelSeconds * accel.PowerW)
}

// Speedup is the plain runtime ratio.
func Speedup(baselineSeconds, accelSeconds float64) float64 {
	if accelSeconds <= 0 {
		return 0
	}
	return baselineSeconds / accelSeconds
}
