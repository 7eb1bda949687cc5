package hw

import "math"

// MemorySystem models the accelerator's DRAM subsystem. The paper uses
// Ramulator to estimate peak bandwidth for four DDR4-2400R x8 channels
// and provisions the ASIC's array counts so that DRAM bandwidth — not
// compute — is the bottleneck (Section V-D); Section VI-A notes the
// chip's performance is bandwidth-limited.
type MemorySystem struct {
	// Channels is the number of independent DRAM channels.
	Channels int
	// TransfersPerSec is the per-pin transfer rate (2400 MT/s for
	// DDR4-2400).
	TransfersPerSec float64
	// BusBytes is the channel data-bus width in bytes (8 for a 64-bit
	// channel).
	BusBytes int
	// Efficiency derates the peak for row misses, refresh and
	// read/write turnaround (Ramulator-style effective bandwidth).
	Efficiency float64
}

// DDR4x2400R4 is the paper's ASIC memory system: four DDR4-2400R
// channels.
func DDR4x2400R4() MemorySystem {
	return MemorySystem{Channels: 4, TransfersPerSec: 2400e6, BusBytes: 8, Efficiency: 0.60}
}

// PeakBandwidth returns bytes/second at the pins.
func (m MemorySystem) PeakBandwidth() float64 {
	return float64(m.Channels) * m.TransfersPerSec * float64(m.BusBytes)
}

// EffectiveBandwidth returns the sustainable bytes/second.
func (m MemorySystem) EffectiveBandwidth() float64 {
	return m.PeakBandwidth() * m.Efficiency
}

// BSWTileBytes is the DRAM traffic of one gapped-filter tile: both
// sequence windows stream in once (1 byte per base; only Vmax and its
// position return).
func BSWTileBytes(tileSize int) int { return 2 * tileSize }

// GACTXTileBytes is the DRAM traffic of one extension tile: both
// sequence windows in, traceback pointers out (2 bits each, folded into
// the same round number the paper's 1.15 GB/s at 300K tiles/s implies —
// 2 bytes per tile base).
func GACTXTileBytes(tileSize int) int { return 2 * tileSize }

// Demand is an accelerator configuration's DRAM bandwidth demand at
// full compute throughput.
type Demand struct {
	BSWBytesPerSec   float64
	GACTXBytesPerSec float64
}

// Total returns the summed demand in bytes/second.
func (d Demand) Total() float64 { return d.BSWBytesPerSec + d.GACTXBytesPerSec }

// BandwidthDemand computes the demand of a platform running flat out
// with the given tile geometries, its GACT-X arrays at the rate of a
// replayed workload (extTiles tiles in extCycles cycles).
func BandwidthDemand(p Platform, filterTile, filterBand, extTile int, extTiles, extCycles int64) Demand {
	return Demand{
		BSWBytesPerSec:   p.BSWThroughput(filterTile, filterBand) * float64(BSWTileBytes(filterTile)),
		GACTXBytesPerSec: p.GACTXThroughput(extTiles, extCycles) * float64(GACTXTileBytes(extTile)),
	}
}

// ProvisionBSWArrays returns the largest BSW array count a memory
// system can feed at full rate, after reserving the GACT-X demand —
// the paper's provisioning rule ("we provisioned the number of BSW and
// GACT-X arrays on the ASIC to make DRAM bandwidth the bottleneck").
func ProvisionBSWArrays(m MemorySystem, arr Array, filterTile, filterBand int, gactxDemand float64) int {
	perArray := arr.BSWTileRate(filterTile, filterBand) * float64(BSWTileBytes(filterTile))
	if perArray <= 0 {
		return 0
	}
	budget := m.EffectiveBandwidth() - gactxDemand
	if budget <= 0 {
		return 0
	}
	return int(math.Floor(budget / perArray))
}

// Utilization returns demand over effective bandwidth (1.0 = exactly
// bandwidth-bound).
func Utilization(m MemorySystem, d Demand) float64 {
	return d.Total() / m.EffectiveBandwidth()
}
