package hw

import (
	"math"
	"testing"

	"darwinwga/internal/core"
)

func TestASICBreakdownMatchesTableIV(t *testing.T) {
	comps := ASICBreakdown(64, 12, 64)
	want := map[string][2]float64{ // name -> {area, power}
		"BSW Logic":      {16.6, 25.6},
		"GACT-X Logic":   {4.2, 6.72},
		"Traceback SRAM": {15.12, 7.92},
		"DRAM":           {0, 3.10},
	}
	for _, c := range comps {
		w, ok := want[c.Name]
		if !ok {
			t.Fatalf("unexpected component %q", c.Name)
		}
		if math.Abs(c.AreaMM2-w[0]) > 0.01 || math.Abs(c.PowerW-w[1]) > 0.01 {
			t.Errorf("%s: area %.2f power %.2f, want %.2f/%.2f", c.Name, c.AreaMM2, c.PowerW, w[0], w[1])
		}
		delete(want, c.Name)
	}
	area, power := Totals(comps)
	if math.Abs(area-35.92) > 0.05 {
		t.Errorf("total area = %.2f mm2, Table IV says 35.92", area)
	}
	if math.Abs(power-43.34) > 0.05 {
		t.Errorf("total power = %.2f W, Table IV says 43.34", power)
	}
}

func TestASICBreakdownScales(t *testing.T) {
	half := ASICBreakdown(32, 6, 64)
	full := ASICBreakdown(64, 12, 64)
	ah, _ := Totals(half)
	af, _ := Totals(full)
	if ah >= af {
		t.Errorf("half deployment area %.2f >= full %.2f", ah, af)
	}
	// BSW logic should scale exactly 2x.
	if math.Abs(full[0].AreaMM2-2*half[0].AreaMM2) > 1e-9 {
		t.Error("BSW area does not scale linearly with arrays")
	}
}

func TestPlatformConstants(t *testing.T) {
	f := FPGA()
	if f.BSWArrays != 50 || f.GACTXArrays != 2 || f.Array.NPE != 32 || f.Array.ClockHz != 150e6 {
		t.Errorf("FPGA config: %+v", f)
	}
	a := ASIC()
	if a.BSWArrays != 64 || a.GACTXArrays != 12 || a.Array.NPE != 64 || a.Array.ClockHz != 1e9 {
		t.Errorf("ASIC config: %+v", a)
	}
	c := CPU()
	if c.PowerW != 215 || c.PricePerHour != 1.59 {
		t.Errorf("CPU config: %+v", c)
	}
	// Table VI ordering: CPU > FPGA > ASIC power.
	if !(c.PowerW > f.PowerW && f.PowerW > a.PowerW) {
		t.Error("platform power ordering violated")
	}
}

func TestFPGAThroughputNearPaper(t *testing.T) {
	f := FPGA()
	bsw := f.BSWThroughput(320, 32)
	// Paper: 6.25M tiles/s across 50 arrays.
	if bsw < 3e6 || bsw > 12e6 {
		t.Errorf("FPGA BSW throughput = %.2fM tiles/s, paper says 6.25M", bsw/1e6)
	}
	asic := ASIC().BSWThroughput(320, 32)
	// Paper: 70M tiles/s.
	if asic < 35e6 || asic > 140e6 {
		t.Errorf("ASIC BSW throughput = %.1fM tiles/s, paper says 70M", asic/1e6)
	}
	// The ASIC must beat the FPGA by roughly clock x arrays.
	if asic < 5*bsw {
		t.Errorf("ASIC (%.1fM) should be ~11x FPGA (%.1fM)", asic/1e6, bsw/1e6)
	}
}

func TestEstimateAndImprovementMetrics(t *testing.T) {
	w := core.Workload{
		FilterTiles:    10_000_000,
		ExtensionTiles: 3_000,
		ExtensionCells: 3_000 * 500_000,
	}
	// A full 1920-row tile is 60 stripes of ~1920+32 cycles on 32 PEs,
	// 30 on 64.
	gactx := &GACTXReplay{Tiles: 3_000, cycles: map[int]int64{32: 3_000 * 120_000, 64: 3_000 * 62_000}}
	fpga := FPGA()
	est, err := fpga.Estimate(w, gactx, 5.0, 320, 32)
	if err != nil {
		t.Fatal(err)
	}
	if est.FilterSeconds <= 0 {
		t.Fatalf("estimate: %+v", est)
	}
	// 3,000 tiles x 120,000 cycles over 2 arrays at 150 MHz.
	if want := 3_000 * 120_000 / 150e6 / 2; math.Abs(est.ExtensionSeconds-want) > 1e-9 {
		t.Errorf("extension = %vs, want %vs", est.ExtensionSeconds, want)
	}
	if est.TotalSeconds() < est.FilterSeconds {
		t.Error("total < filter")
	}
	// Iso-sensitive software at the paper's Parasail rate: 10M tiles /
	// 225K tiles/s ≈ 44s plus stages.
	sw := IsoSensitiveSoftwareSeconds(w, 0, 5.0, 100.0)
	if sw < 44 || sw > 44.5+105 {
		t.Errorf("iso-sensitive software = %.1fs", sw)
	}
	// Improvement metrics are positive and favor the accelerator for
	// this filter-dominated workload.
	ppd := PerfPerDollar(sw, CPU(), est.TotalSeconds(), fpga)
	if ppd <= 1 {
		t.Errorf("perf/$ = %.2f, expected > 1", ppd)
	}
	asicEst, err := ASIC().Estimate(w, gactx, 5.0, 320, 32)
	if err != nil {
		t.Fatal(err)
	}
	ppw := PerfPerWatt(sw, CPU(), asicEst.TotalSeconds(), ASIC())
	if ppw <= ppd {
		t.Errorf("ASIC perf/W (%.0f) should dwarf FPGA perf/$ (%.1f)", ppw, ppd)
	}
	if Speedup(100, 10) != 10 {
		t.Error("Speedup arithmetic")
	}
	// A replay that did not watch every tile of the workload (a run
	// resumed from a checkpoint replays anchors without running tiles)
	// prices only part of it.
	gactx.Tiles--
	if _, err := fpga.Estimate(w, gactx, 5.0, 320, 32); err == nil {
		t.Error("estimate accepted a replay that missed a tile")
	}
}

func TestEstimateRequiresAccelerator(t *testing.T) {
	if _, err := CPU().Estimate(core.Workload{FilterTiles: 1}, NewGACTXReplay(), 0, 320, 32); err == nil {
		t.Error("CPU estimate should fail (no arrays)")
	}
}

func TestIsoSensitiveDefaultsToPaperRate(t *testing.T) {
	w := core.Workload{FilterTiles: 225_000}
	if got := IsoSensitiveSoftwareSeconds(w, 0, 0, 0); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("default rate: %v, want 1s", got)
	}
	if got := IsoSensitiveSoftwareSeconds(w, 450_000, 0, 0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("explicit rate: %v, want 0.5s", got)
	}
}
