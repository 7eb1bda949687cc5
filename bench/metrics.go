package main

import "time"

// metricDef is one metric the benchmark reports. BENCHMARK.json lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	exact              bool // a count that repeats exactly for one seed
}

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{name: "job_p50_s", unit: "s", better: "lower"},
	{name: "bases_per_s", unit: "bp/s", better: "higher"},
	{name: "truth_recall", unit: "ratio", better: "higher"},
	{name: "truth_precision", unit: "ratio", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer are the metrics of a traced run, grouped by layer (= module).
var perLayer = []metricDef{
	// core: stage walls summed over the counted pass's jobs, and their split
	{name: "core.seed_s", unit: "s", better: "lower"},
	{name: "core.filter_s", unit: "s", better: "lower"},
	{name: "core.extend_s", unit: "s", better: "lower"},
	{name: "core.filter_share", unit: "ratio", better: "lower"},
	{name: "core.extend_share", unit: "ratio", better: "lower"},
	// core: work done, as the pipeline counted it
	{name: "core.seed_hits", unit: "count", better: "lower", exact: true},
	{name: "core.candidates", unit: "count", better: "lower", exact: true},
	{name: "core.filter_tiles", unit: "count", better: "lower", exact: true},
	{name: "core.filter_cells", unit: "count", better: "lower", exact: true},
	{name: "core.passed_filter", unit: "count", better: "lower", exact: true},
	{name: "core.absorbed", unit: "count", better: "higher", exact: true},
	{name: "core.extension_tiles", unit: "count", better: "lower", exact: true},
	{name: "core.extension_cells", unit: "count", better: "lower", exact: true},
	{name: "core.hsps", unit: "count", better: "higher", exact: true},
	{name: "core.false_hsps", unit: "count", better: "lower", exact: true},
	{name: "core.filter_pass_ratio", unit: "ratio", better: "higher"},
	{name: "core.extension_keep_ratio", unit: "ratio", better: "higher"},
	{name: "core.filter_tiles_per_s", unit: "tiles/s", better: "higher"},
	{name: "core.filter_cells_per_s", unit: "cells/s", better: "higher"},
	{name: "core.extension_cells_per_s", unit: "cells/s", better: "higher"},
	{name: "core.filter_self_s", unit: "s", better: "lower"},
	{name: "core.extend_self_s", unit: "s", better: "lower"},
	// align: the DP kernels, busy time summed over workers
	{name: "align.bsw_busy_s", unit: "s", better: "lower"},
	{name: "align.bsw_cells_per_s", unit: "cells/s", better: "higher"},
	{name: "align.ungapped_busy_s", unit: "s", better: "lower"},
	{name: "align.ungapped_tiles_per_s", unit: "tiles/s", better: "higher"},
	{name: "align.xdrop_busy_s", unit: "s", better: "lower"},
	{name: "align.xdrop_cells_per_s", unit: "cells/s", better: "higher"},
	{name: "align.bsw_tile_ns", unit: "ns", better: "lower"},
	// gact: direct extension at known-homologous anchors
	{name: "gact.extend_bp_per_s", unit: "bp/s", better: "higher"},
	{name: "gact.extend_cells_per_s", unit: "cells/s", better: "higher"},
	{name: "gact.allocs_per_extend", unit: "allocs", better: "lower"},
	{name: "gact.bytes_per_extend", unit: "bytes", better: "lower"},
	// set-up layers, each a timed public call
	{name: "dsoft.collect_bp_per_s", unit: "bp/s", better: "higher"},
	{name: "seed.index_build_s", unit: "s", better: "lower"},
	{name: "seed.index_bytes", unit: "bytes", better: "lower", exact: true},
	{name: "indexstore.write_s", unit: "s", better: "lower"},
	{name: "indexstore.load_s", unit: "s", better: "lower"},
	{name: "indexstore.file_bytes", unit: "bytes", better: "lower", exact: true},
	{name: "evolve.generate_s", unit: "s", better: "lower"},
	// output layers
	{name: "chain.build_s", unit: "s", better: "lower"},
	{name: "maf.write_s", unit: "s", better: "lower"},
	{name: "maf.bytes", unit: "bytes", better: "lower", exact: true},
	// server: what one worker adds around the pipeline
	{name: "server.submit_p50_s", unit: "s", better: "lower"},
	{name: "server.queue_wait_p50_s", unit: "s", better: "lower"},
	{name: "server.run_p50_s", unit: "s", better: "lower"},
	{name: "server.overhead_p50_s", unit: "s", better: "lower"},
	{name: "server.cache_hits", unit: "count", better: "higher", exact: true},
	{name: "server.cache_hit_job_p50_s", unit: "s", better: "lower"},
	{name: "server.rejected", unit: "count", better: "lower", exact: true},
	{name: "client.job_p75_s", unit: "s", better: "lower"},
	{name: "client.first_block_p50_s", unit: "s", better: "lower"},
	// cluster: what the coordinator and the shard plane add
	{name: "cluster.overhead_p50_s", unit: "s", better: "lower"},
	{name: "cluster.dispatches", unit: "count", better: "lower"},
	{name: "cluster.shard.units", unit: "count", better: "lower"},
	{name: "cluster.shard.retried", unit: "count", better: "lower"},
	{name: "cluster.shard.hedged", unit: "count", better: "lower"},
	{name: "cluster.shard.duplicate", unit: "count", better: "lower"},
	{name: "cluster.shard.extension_cells", unit: "count", better: "lower"},
	{name: "cluster.shard.wasted_cell_ratio", unit: "ratio", better: "lower"},
	{name: "cluster.shard.merge_absorbed", unit: "count", better: "higher"},
	// obs: the cost of the instrumentation itself
	{name: "obs.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "obs.trace_events", unit: "count", better: "lower"},
	// process
	{name: "process.alloc_mb_per_job", unit: "MB", better: "lower"},
	{name: "process.allocs_per_job", unit: "allocs", better: "lower"},
	{name: "process.gc_cycles", unit: "count", better: "lower"},
	{name: "process.gc_pause_total_ms", unit: "ms", better: "lower"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// layerInput is everything a traced run knows when it reports.
type layerInput struct {
	spec            spec
	counts          layerCounts // of pass countedPass
	probes          probes
	setups          []setupTimes
	samples         []sample
	plainJobS       []float64 // job times of untraced passes
	tracedJobS      []float64 // job times of traced passes
	firstBlockS     []float64 // job start -> first MAF block, untraced passes
	falseHSPs       int
	mafBytes        int64
	mem             memDelta
	oneShotExtCells int64
	workers         int
}

// layerMetrics reports every per-layer metric. A metric a workload has no
// such layer for (server.* on a library workload, chain.* behind a server)
// reads 0.
func layerMetrics(put func(string, float64), in layerInput) {
	c := in.counts
	align := secs(c.seedS + c.filterS + c.extendS)
	put("core.seed_s", secs(c.seedS))
	put("core.filter_s", secs(c.filterS))
	put("core.extend_s", secs(c.extendS))
	put("core.filter_share", ratio(secs(c.filterS), align))
	put("core.extend_share", ratio(secs(c.extendS), align))

	put("core.seed_hits", float64(c.seedHits))
	put("core.candidates", float64(c.candidates))
	put("core.filter_tiles", float64(c.filterTiles))
	put("core.filter_cells", float64(c.filterCells))
	put("core.passed_filter", float64(c.passed))
	put("core.absorbed", float64(c.absorbed))
	put("core.extension_tiles", float64(c.extTiles))
	put("core.extension_cells", float64(c.extCells))
	put("core.hsps", float64(c.hsps))
	put("core.false_hsps", float64(in.falseHSPs))
	put("core.filter_pass_ratio", ratio(float64(c.passed), float64(c.filterTiles)))
	put("core.extension_keep_ratio", ratio(float64(c.hsps), float64(c.extAnchors)))
	put("core.filter_tiles_per_s", ratio(float64(c.filterTiles), secs(c.filterS)))
	put("core.filter_cells_per_s", ratio(float64(c.filterCells), secs(c.filterS)))
	put("core.extension_cells_per_s", ratio(float64(c.extCells), secs(c.extendS)))
	// Stage wall minus the kernel's share of it: the filter kernel runs on
	// every worker, whole-job extension on one goroutine. Shard units have
	// no stage walls to subtract from.
	selfOf := func(wall, busy time.Duration, workers int) float64 {
		if wall == 0 {
			return 0
		}
		return secs(wall) - secs(busy)/float64(workers)
	}
	put("core.filter_self_s", selfOf(c.filterS, c.filterBusy, in.workers))
	put("core.extend_self_s", selfOf(c.extendS, c.extBusy, 1))

	bsw, ungapped := c.filterBusy, time.Duration(0)
	if in.spec.lastz {
		bsw, ungapped = 0, c.filterBusy
	}
	put("align.bsw_busy_s", secs(bsw))
	put("align.ungapped_busy_s", secs(ungapped))
	put("align.xdrop_busy_s", secs(c.extBusy))
	put("align.xdrop_cells_per_s", ratio(float64(c.extCells), secs(c.extBusy)))
	if in.spec.lastz {
		put("align.bsw_cells_per_s", 0)
		put("align.ungapped_tiles_per_s", ratio(float64(c.filterTiles), secs(ungapped)))
	} else {
		put("align.bsw_cells_per_s", ratio(float64(c.filterCells), secs(bsw)))
		put("align.ungapped_tiles_per_s", 0)
	}
	p := in.probes
	put("align.bsw_tile_ns", p.bswTileNS)
	put("gact.extend_bp_per_s", p.gactBpPerS)
	put("gact.extend_cells_per_s", p.gactCellsPerS)
	put("gact.allocs_per_extend", p.gactAllocsPerExtend)
	put("gact.bytes_per_extend", p.gactBytesPerExtend)
	put("dsoft.collect_bp_per_s", p.collectBpPerS)
	put("seed.index_build_s", p.indexBuildS)
	put("seed.index_bytes", float64(p.indexBytes))
	put("indexstore.write_s", p.storeWriteS)
	put("indexstore.load_s", p.storeLoadS)
	put("indexstore.file_bytes", float64(p.storeFileBytes))
	var gen []float64
	for _, st := range in.setups {
		gen = append(gen, secs(st.generate))
	}
	put("evolve.generate_s", median(gen))

	put("chain.build_s", secs(c.chainS))
	put("maf.write_s", secs(c.mafS))
	put("maf.bytes", float64(in.mafBytes))

	// Server and cluster numbers come from the untraced passes' jobs, so
	// that they line up with the end-to-end metrics.
	var submit, queue, run, overhead, hit, clusterOver []float64
	for _, sm := range in.samples {
		if sm.err != nil || sm.traced || sm.front == nil {
			continue
		}
		submit = append(submit, secs(sm.submit))
		ws := sm.worker
		if ws == nil || ws.Stats == nil {
			continue
		}
		if ws.Cached {
			hit = append(hit, secs(sm.total))
			continue
		}
		q := float64(ws.Stats.QueueWaitMS) / 1e3
		r := float64(ws.Stats.RunMS) / 1e3
		queue = append(queue, q)
		run = append(run, r)
		if in.spec.topo == worker {
			overhead = append(overhead, secs(sm.total)-q-r)
		} else {
			clusterOver = append(clusterOver, secs(sm.total)-r)
		}
	}
	if in.spec.topo == shard {
		// A sharded job has no single worker job; everything outside the
		// kernels is the scatter/gather plane's.
		for _, sm := range in.samples {
			if sm.err == nil && !sm.traced {
				clusterOver = append(clusterOver, secs(sm.total))
			}
		}
	}
	put("server.submit_p50_s", median(submit))
	put("server.queue_wait_p50_s", median(queue))
	put("server.run_p50_s", median(run))
	put("server.overhead_p50_s", median(overhead))
	put("server.cache_hits", float64(c.cacheHits))
	put("server.cache_hit_job_p50_s", median(hit))
	put("server.rejected", float64(c.rejected))
	put("client.first_block_p50_s", median(in.firstBlockS))
	if in.spec.topo == library {
		put("client.job_p75_s", 0)
	} else {
		put("client.job_p75_s", percentile(in.plainJobS, 0.75))
	}

	put("cluster.overhead_p50_s", median(clusterOver))
	put("cluster.dispatches", float64(c.dispatches))
	put("cluster.shard.units", float64(c.shardUnits))
	put("cluster.shard.retried", float64(c.shardRetried))
	put("cluster.shard.hedged", float64(c.shardHedged))
	put("cluster.shard.duplicate", float64(c.shardDuplicate))
	if in.spec.topo == shard {
		put("cluster.shard.extension_cells", float64(c.extCells))
		put("cluster.shard.wasted_cell_ratio", 1-ratio(float64(in.oneShotExtCells), float64(c.extCells)))
		// Units return every alignment above He; the merge keeps the
		// blocks that survive the global absorption walk.
		put("cluster.shard.merge_absorbed", float64(c.hsps-in.mergedBlocks()))
	} else {
		put("cluster.shard.extension_cells", 0)
		put("cluster.shard.wasted_cell_ratio", 0)
		put("cluster.shard.merge_absorbed", 0)
	}

	put("obs.trace_overhead_share", ratio(median(in.tracedJobS)-median(in.plainJobS), median(in.plainJobS)))
	put("obs.trace_events", float64(c.traceEvents))

	jobs := float64(max(len(in.samples), 1))
	put("process.alloc_mb_per_job", float64(in.mem.allocBytes)/jobs/(1<<20))
	put("process.allocs_per_job", float64(in.mem.mallocs)/jobs)
	put("process.gc_cycles", float64(in.mem.gcCycles))
	put("process.gc_pause_total_ms", float64(in.mem.gcPause)/float64(time.Millisecond))
}

// mergedBlocks counts the MAF blocks the counted pass's jobs returned.
func (in layerInput) mergedBlocks() int64 {
	var n int64
	for _, sm := range in.samples {
		if sm.err == nil && sm.pass == countedPass {
			n += int64(countBlocks(sm.maf))
		}
	}
	return n
}
