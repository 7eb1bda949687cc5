package hw

import "testing"

func TestMemoryBandwidth(t *testing.T) {
	m := DDR4x2400R4()
	peak := m.PeakBandwidth()
	// 4 channels x 2400 MT/s x 8 B = 76.8 GB/s.
	if peak < 76.7e9 || peak > 76.9e9 {
		t.Errorf("peak = %.2f GB/s, want 76.8", peak/1e9)
	}
	if eff := m.EffectiveBandwidth(); eff >= peak || eff <= 0 {
		t.Errorf("effective = %.2f GB/s vs peak %.2f", eff/1e9, peak/1e9)
	}
}

func TestTileTraffic(t *testing.T) {
	// The paper's throughput/bandwidth pairs imply ~2 bytes per tile
	// base: 70M tiles/s at 44.8 GB/s for 320-base BSW tiles, 300K
	// tiles/s at 1.15 GB/s for 1920-base GACT-X tiles.
	if got := BSWTileBytes(320); got != 640 {
		t.Errorf("BSW tile bytes = %d, want 640", got)
	}
	if got := GACTXTileBytes(1920); got != 3840 {
		t.Errorf("GACT-X tile bytes = %d, want 3840", got)
	}
}

func TestASICIsBandwidthBound(t *testing.T) {
	// Section VI-A: "The performance of this chip is limited by the
	// available memory bandwidth." The 64-BSW/12-GACT-X deployment's
	// demand must sit near (and not hugely above) the effective
	// bandwidth of the four-channel DDR4 system.
	m := DDR4x2400R4()
	asic := ASIC()
	r := realReplay(t)
	cycles, _ := r.Cycles(asic)
	d := BandwidthDemand(asic, 320, 32, 1920, r.Tiles, cycles)
	u := Utilization(m, d)
	if u < 0.5 || u > 1.6 {
		t.Errorf("ASIC bandwidth utilization = %.2f; the paper provisions for ~1.0", u)
	}
	// The BSW traffic dominates, matching the paper's 44.8 vs 1.15 GB/s
	// split.
	if d.BSWBytesPerSec < 5*d.GACTXBytesPerSec {
		t.Errorf("BSW demand %.2f GB/s should dwarf GACT-X %.2f GB/s",
			d.BSWBytesPerSec/1e9, d.GACTXBytesPerSec/1e9)
	}
}

func TestProvisionBSWArrays(t *testing.T) {
	m := DDR4x2400R4()
	asic := ASIC()
	arr := asic.Array
	r := realReplay(t)
	cycles, _ := r.Cycles(asic)
	gactxDemand := asic.GACTXThroughput(r.Tiles, cycles) * float64(GACTXTileBytes(1920))
	n := ProvisionBSWArrays(m, arr, 320, 32, gactxDemand)
	// The paper lands on 64 arrays; the model must reproduce that scale
	// (not 10, not 500).
	if n < 32 || n > 128 {
		t.Errorf("provisioned %d BSW arrays; paper uses 64", n)
	}
	// Degenerate budgets.
	if got := ProvisionBSWArrays(m, arr, 320, 32, m.EffectiveBandwidth()*2); got != 0 {
		t.Errorf("over-committed memory still provisioned %d arrays", got)
	}
	if got := ProvisionBSWArrays(m, Array{NPE: 64, ClockHz: 0}, 320, 32, 0); got != 0 {
		t.Errorf("zero-clock array provisioned %d", got)
	}
}

func TestFPGAWellUnderBandwidth(t *testing.T) {
	// The FPGA's 2.1 GB/s BSW demand is far below even one DDR4
	// channel; it is compute- (area-) bound, not bandwidth-bound.
	m := DDR4x2400R4()
	r := realReplay(t)
	cycles, _ := r.Cycles(FPGA())
	d := BandwidthDemand(FPGA(), 320, 32, 1920, r.Tiles, cycles)
	if u := Utilization(m, d); u > 0.25 {
		t.Errorf("FPGA utilization %.2f; should be far below 1", u)
	}
}
