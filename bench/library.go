package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"darwinwga"
	"darwinwga/internal/chain"
	"darwinwga/internal/core"
	"darwinwga/internal/genome"
	"darwinwga/internal/maf"
)

// libWorld is a library workload set up and ready: the target indexed once,
// jobs run as Align + BuildChains + WriteMAF against it.
type libWorld struct {
	in      *inputs
	cfg     core.Config
	aligner *core.Aligner
	tBases  []byte
	tMap    *maf.SeqMap
	counts  layerCounts
}

func setupLibrary(in *inputs) (*libWorld, time.Duration, error) {
	w := &libWorld{in: in, cfg: in.spec.pipeline()}
	var tStarts []int
	w.tBases, tStarts = genome.Concat(in.target.Seqs)
	var err error
	if w.tMap, err = maf.NewSeqMap(in.target.Name, seqNames(in.target), tStarts); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	w.aligner, err = core.NewAligner(w.tBases, w.cfg)
	return w, time.Since(t0), err
}

func seqNames(a *genome.Assembly) []string {
	names := make([]string, len(a.Seqs))
	for i, s := range a.Seqs {
		names[i] = s.Name
	}
	return names
}

func (w *libWorld) close() {}

func (w *libWorld) warm(ctx context.Context) error {
	_, err := w.aligner.AlignContext(ctx, w.in.bases(w.in.warm))
	return err
}

// runPass runs the job list once, one job after another: the library is
// called the way a one-shot caller calls it, and parallelism is the
// pipeline's own (Config.Workers = GOMAXPROCS).
func (w *libWorld) runPass(ctx context.Context, pass int, tr *spanLog) []sample {
	w.counts = layerCounts{}
	out := make([]sample, 0, len(w.in.jobs))
	for i, j := range w.in.jobs {
		out = append(out, w.runJob(ctx, pass, i, j, tr))
	}
	return out
}

func (w *libWorld) passCounts() layerCounts { return w.counts }

func (w *libWorld) runJob(ctx context.Context, pass, idx int, j job, tr *spanLog) sample {
	s := sample{job: idx, pass: pass, traced: tr != nil}
	query := w.in.bases(w.in.wins[j.window])
	qAsm := w.in.assembly(w.in.wins[j.window])
	_, qStarts := genome.Concat(qAsm.Seqs)
	qMap, err := maf.NewSeqMap(qAsm.Name, seqNames(qAsm), qStarts)
	if err != nil {
		s.err = err
		return s
	}

	cfg := w.cfg
	var emitted []core.HSP
	var first time.Time
	cfg.HSPHook = func(h core.HSP) {
		if first.IsZero() {
			first = time.Now()
		}
		emitted = append(emitted, h)
	}
	trace := fmt.Sprintf("p%d-j%d", pass, idx)
	var rec *pipelineRecorder
	var busy kernelBusy
	if tr != nil {
		rec = &pipelineRecorder{log: tr, trace: trace, job: tr.reserve(), busy: &busy}
		cfg.Recorder = rec
	}

	s.start = time.Now()
	aligner, err := w.aligner.WithConfig(cfg)
	if err != nil {
		s.err = err
		return s
	}
	res, err := aligner.AlignContext(ctx, query)
	if err != nil {
		s.err = err
		return s
	}
	tChain := time.Now()
	darwinwga.BuildChains(res.HSPs, w.tBases, query, chain.DefaultOptions())
	tMAF := time.Now()
	var buf bytes.Buffer
	s.err = renderMAF(&buf, &maf.BlockRenderer{TMap: w.tMap, QMap: qMap, Target: w.tBases, Query: query}, emitted)
	end := time.Now()

	s.total = end.Sub(s.start)
	if !first.IsZero() {
		s.firstBlock = first.Sub(s.start)
	}
	s.maf = buf.Bytes()
	if res.Truncated != "" && s.err == nil {
		s.err = fmt.Errorf("result truncated: %s", res.Truncated)
	}
	if rec != nil {
		tr.add(trace, rec.job, "chain", "build", tChain, tMAF)
		tr.add(trace, rec.job, "maf", "write", tMAF, end)
		tr.finish(rec.job, trace, 0, "bench", "job", s.start, end)
	}

	c := &w.counts
	c.addWorkload(res.Workload)
	c.seedS += res.Timings.Seeding
	c.filterS += res.Timings.Filtering
	c.extendS += res.Timings.Extension
	c.hsps += int64(len(res.HSPs))
	c.chainS += tMAF.Sub(tChain)
	c.mafS += end.Sub(tMAF)
	c.filterBusy += time.Duration(busy.filterNS.Load())
	c.extBusy += time.Duration(busy.extNS.Load())
	c.traceEvents += busy.events.Load()
	return s
}

// renderMAF writes the HSPs, in the pipeline's emission order, the way
// darwinwga.Report.WriteMAF does.
func renderMAF(buf *bytes.Buffer, br *maf.BlockRenderer, hsps []core.HSP) error {
	mw := maf.NewWriter(buf)
	for i := range hsps {
		h := &hsps[i]
		ops := make([]byte, len(h.Ops))
		for k, op := range h.Ops {
			ops[k] = byte(op)
		}
		block, err := br.Render(int64(h.Score), h.Strand, h.TStart, h.QStart, ops)
		if err != nil {
			return fmt.Errorf("rendering MAF block %d: %w", i, err)
		}
		if err := mw.Write(block); err != nil {
			return err
		}
	}
	return mw.Close()
}
