package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"darwinwga/internal/cluster"
	"darwinwga/internal/core"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// resultCacheBytes is the one worker setting the serve workloads change
// from its default (the cache is off by default): resubmissions exist to
// price a cache hit against a miss.
const resultCacheBytes = 64 << 20

// clients is the closed-loop client count: one per CPU, two at most, so the
// load generator never needs more CPU than the box has spare.
func clients() int { return min(2, runtime.NumCPU()) }

// serveWorld is a serve workload set up and ready: in-process servers
// behind real HTTP listeners, reached through front.
type serveWorld struct {
	in      *inputs
	workers []*workerNode
	coord   *cluster.Coordinator
	coordTS *httptest.Server
	stop    context.CancelFunc // stops the registration agents
	agents  sync.WaitGroup
	front   string
	http    *http.Client
	fastas  []string
	counts  layerCounts
}

type workerNode struct {
	srv *server.Server
	ts  *httptest.Server
}

// setupServe starts the topology and returns once it can take jobs; the
// second result is the time spent registering (indexing) the target.
func setupServe(ctx context.Context, in *inputs) (*serveWorld, time.Duration, error) {
	w := &serveWorld{in: in}
	w.http = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients()}}
	for _, win := range in.wins {
		w.fastas = append(w.fastas, in.fasta(win))
	}
	nWorkers := 1
	if in.spec.topo != worker {
		nWorkers = 2
	}
	var indexing time.Duration
	for i := 0; i < nWorkers; i++ {
		srv, err := server.New(server.Config{ResultCacheBytes: resultCacheBytes})
		if err != nil {
			w.close()
			return nil, 0, err
		}
		node := &workerNode{srv: srv, ts: httptest.NewServer(srv.Handler())}
		w.workers = append(w.workers, node)
		t0 := time.Now()
		if _, err := srv.RegisterTarget(in.target.Name, in.target); err != nil {
			w.close()
			return nil, 0, err
		}
		indexing += time.Since(t0)
	}
	w.front = w.workers[0].ts.URL
	if in.spec.topo == worker {
		return w, indexing, nil
	}

	ccfg := cluster.Config{}
	if in.spec.topo == shard {
		ccfg.ShardDispatch = []string{"*"}
	}
	var err error
	if w.coord, err = cluster.New(ccfg); err != nil {
		w.close()
		return nil, 0, err
	}
	w.coordTS = httptest.NewServer(w.coord.Handler())
	w.front = w.coordTS.URL
	actx, stop := context.WithCancel(ctx)
	w.stop = stop
	for i, node := range w.workers {
		agent, err := cluster.NewAgent(cluster.AgentConfig{
			Coordinator: w.coordTS.URL, WorkerID: fmt.Sprintf("w%d", i+1),
			Advertise: node.ts.URL, Server: node.srv,
		})
		if err != nil {
			w.close()
			return nil, 0, err
		}
		w.agents.Add(1)
		go func() {
			defer w.agents.Done()
			agent.Run(actx) //nolint:errcheck // returns when actx ends
		}()
	}
	if err := w.waitWorkers(ctx, nWorkers); err != nil {
		w.close()
		return nil, 0, err
	}
	return w, indexing, nil
}

// waitWorkers polls the coordinator's /readyz until n workers hold leases.
func (w *serveWorld) waitWorkers(ctx context.Context, n int) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var body struct {
			Workers int `json:"workers"`
		}
		if code, err := w.getJSON(ctx, w.front+"/readyz", &body); err == nil && code == http.StatusOK && body.Workers >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("coordinator never saw %d workers", n)
}

// close stops every server and goroutine the world started and waits.
func (w *serveWorld) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if w.stop != nil {
		w.stop()
		w.agents.Wait()
	}
	if w.coord != nil {
		w.coord.Shutdown(ctx) //nolint:errcheck // best effort at teardown
	}
	if w.coordTS != nil {
		w.coordTS.Close()
	}
	w.http.CloseIdleConnections()
	for _, n := range w.workers {
		n.srv.Shutdown(ctx) //nolint:errcheck // best effort at teardown
		n.ts.Close()
	}
}

// runPass sends the job list once through a closed loop of clients: each
// takes the next unsent job, and sends its next only when that one's MAF
// stream has ended.
func (w *serveWorld) runPass(ctx context.Context, pass int, tr *spanLog) []sample {
	jobs := w.in.jobs
	out := make([]sample, len(jobs))
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next sync.Mutex
	cursor := 0
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				next.Lock()
				i := cursor
				cursor++
				next.Unlock()
				if i >= len(jobs) {
					return
				}
				if o := jobs[i].resubmitOf; o >= 0 {
					<-done[o] // a resubmission never precedes its original's completion
				}
				out[i] = w.runJob(ctx, pass, i, jobs[i], c, tr)
				close(done[i])
			}
		}(c)
	}
	wg.Wait()
	w.counts = w.scrape(ctx, out)
	return out
}

func (w *serveWorld) passCounts() layerCounts { return w.counts }

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads, from a
// worker or from the coordinator.
type jobStatus struct {
	ID        string         `json:"id"`
	State     string         `json:"state"`
	Error     string         `json:"error"`
	Truncated string         `json:"truncated"`
	Cached    bool           `json:"cached"`
	Created   time.Time      `json:"created"`
	Started   *time.Time     `json:"started"`
	Finished  *time.Time     `json:"finished"`
	Workload  *core.Workload `json:"workload"`
	Stats     *struct {
		QueueWaitMS int64                 `json:"queue_wait_ms"`
		RunMS       int64                 `json:"run_ms"`
		Stages      obs.AggregateSnapshot `json:"stages"`
	} `json:"stats"`

	// coordinator only
	FailedShards []string `json:"failed_shards"`
	Worker       *struct {
		Addr  string `json:"worker_addr"`
		JobID string `json:"worker_job_id"`
	} `json:"worker"`
}

// get fetches a small document: a status, a metrics page.
func (w *serveWorld) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (w *serveWorld) getJSON(ctx context.Context, url string, v any) (int, error) {
	code, data, err := w.get(ctx, url)
	if err != nil {
		return code, err
	}
	return code, json.Unmarshal(data, v)
}

// firstBlockMark starts every MAF block after the file header.
var firstBlockMark = []byte("\na score=")

func countBlocks(maf []byte) int { return bytes.Count(maf, firstBlockMark) }

// runJob is one client-visible job: POST /v1/jobs, then stream
// /v1/jobs/{id}/maf to EOF. Anything but 202 then a complete 200 stream of
// a job that ends "done" and untruncated is a failed job.
func (w *serveWorld) runJob(ctx context.Context, pass, idx int, j job, client int, tr *spanLog) sample {
	return w.roundTrip(ctx, sample{job: idx, pass: pass, traced: tr != nil}, w.fastas[j.window], client, tr)
}

// warm sends the warm-up window through the front door, untimed. It is no
// window of the job list, so it cannot turn a later job into a cache hit.
func (w *serveWorld) warm(ctx context.Context) error {
	return w.roundTrip(ctx, sample{}, w.in.fasta(w.in.warm), 0, nil).err
}

func (w *serveWorld) roundTrip(ctx context.Context, s sample, fasta string, client int, tr *spanLog) sample {
	body, _ := json.Marshal(map[string]string{
		"target": w.in.target.Name, "query_fasta": fasta,
		"query_name": w.in.pair.Query.Name, "client": fmt.Sprintf("bench-%d", client),
	})
	s.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.front+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.http.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close() //nolint:errcheck // body consumed
	s.submit = time.Since(s.start)
	if resp.StatusCode != http.StatusAccepted {
		s.err = fmt.Errorf("submit answered HTTP %d", resp.StatusCode)
		return s
	}
	if err != nil {
		s.err = fmt.Errorf("decoding submit response: %w", err)
		return s
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.front+"/v1/jobs/"+accepted.ID+"/maf", nil)
	if err != nil {
		s.err = err
		return s
	}
	resp, err = w.http.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	streamStart := time.Now()
	var maf bytes.Buffer
	var first time.Time
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			from := max(maf.Len()-len(firstBlockMark), 0)
			maf.Write(buf[:n])
			if first.IsZero() && bytes.Contains(maf.Bytes()[from:], firstBlockMark) {
				first = time.Now()
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			s.err = fmt.Errorf("reading MAF stream: %w", rerr)
			break
		}
	}
	end := time.Now()
	resp.Body.Close() //nolint:errcheck // body consumed
	s.total = end.Sub(s.start)
	if !first.IsZero() {
		s.firstBlock = first.Sub(s.start)
	}
	s.maf = maf.Bytes()
	if s.err == nil && resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("MAF stream answered HTTP %d", resp.StatusCode) // 206 = partial
	}

	// Status is read after the clock stopped: it verifies the job and
	// carries the server's own account of where the time went.
	var st jobStatus
	if _, err := w.getJSON(ctx, w.front+"/v1/jobs/"+accepted.ID, &st); err != nil && s.err == nil {
		s.err = fmt.Errorf("reading job status: %w", err)
	}
	if s.err == nil && (st.State != "done" || st.Truncated != "" || len(st.FailedShards) > 0) {
		s.err = fmt.Errorf("job ended state=%q truncated=%q failed_shards=%d: %s", st.State, st.Truncated, len(st.FailedShards), st.Error)
	}
	s.front = &st
	s.worker = &st
	if w.coord != nil {
		s.worker = nil
		if st.Worker != nil { // whole-job routing: the worker's view of the same job
			var ws jobStatus
			if _, err := w.getJSON(ctx, st.Worker.Addr+"/v1/jobs/"+st.Worker.JobID, &ws); err == nil {
				s.worker = &ws
			}
		}
	}

	if tr != nil {
		trace := fmt.Sprintf("p%d-j%d", s.pass, s.job)
		root := tr.add(trace, 0, "bench", "job", s.start, end)
		tr.add(trace, root, "bench", "submit", s.start, s.start.Add(s.submit))
		stream := tr.add(trace, root, "bench", "stream", streamStart, end)
		// What the stream waits for, by the servers' own timestamps
		// (same clock: they run in this process), cut to the stream's
		// interval and laid end to end so that self times add up.
		if ws := s.worker; ws != nil && ws.Started != nil && ws.Finished != nil {
			at := streamStart
			within := func(layer, name string, until time.Time) {
				if until.After(end) {
					until = end
				}
				if until.After(at) {
					tr.add(trace, stream, layer, name, at, until)
					at = until
				}
			}
			if w.coord != nil {
				within("cluster", "route", ws.Created)
			}
			within("server", "queue", *ws.Started)
			within("server", "run", *ws.Finished)
		}
	}
	return s
}

// scrape reads what the servers themselves counted during the pass: every
// worker's /metrics (the pipeline counters, summed over workers — the
// servers are new each pass, so totals are the pass's), the coordinator's
// /metrics, and the per-job stage walls from the job statuses.
func (w *serveWorld) scrape(ctx context.Context, pass []sample) layerCounts {
	var c layerCounts
	wm := map[string]float64{}
	for _, n := range w.workers {
		for k, v := range w.promGet(ctx, n.ts.URL+"/metrics") {
			wm[k] += v
		}
	}
	n := func(k string) int64 { return int64(wm[k]) }
	c.seedHits = n("darwinwga_dsoft_seed_hits_total")
	c.candidates = n("darwinwga_dsoft_candidates_total")
	c.passed = n(`darwinwga_filter_tiles_total{verdict="pass"}`)
	c.filterTiles = c.passed + n(`darwinwga_filter_tiles_total{verdict="fail"}`)
	c.filterCells = n("darwinwga_filter_cells_total")
	c.extAnchors = n("darwinwga_gact_anchors_total")
	c.extTiles = n("darwinwga_gact_tiles_total")
	c.extCells = n("darwinwga_gact_cells_total")
	c.hsps = n("darwinwga_core_hsps_total")
	c.filterBusy = time.Duration(wm["darwinwga_filter_tile_seconds_sum"] * float64(time.Second))
	c.extBusy = time.Duration(wm["darwinwga_gact_tile_seconds_sum"] * float64(time.Second))
	c.cacheHits = n("darwinwga_result_cache_hits_total")
	for k, v := range wm {
		if strings.HasPrefix(k, "darwinwga_jobs_rejected_total{") {
			c.rejected += int64(v)
		}
	}
	if w.coord != nil {
		cm := w.promGet(ctx, w.front+"/metrics")
		unit := func(outcome string) int64 {
			return int64(cm[`darwinwga_cluster_shard_units_total{outcome="`+outcome+`"}`])
		}
		c.dispatches = int64(cm["darwinwga_cluster_jobs_routed_total"])
		c.shardUnits = unit("dispatched")
		c.shardRetried = unit("retried")
		c.shardHedged = unit("hedged")
		c.shardDuplicate = unit("duplicate")
	}
	for _, s := range pass {
		if ws := s.worker; ws != nil && ws.Stats != nil && !ws.Cached {
			c.seedS += time.Duration(ws.Stats.Stages.Seeding.WallMS) * time.Millisecond
			c.filterS += time.Duration(ws.Stats.Stages.Filter.WallMS) * time.Millisecond
			c.extendS += time.Duration(ws.Stats.Stages.Extension.WallMS) * time.Millisecond
		}
		if ws := s.worker; ws != nil && ws.Workload != nil && !ws.Cached {
			c.absorbed += ws.Workload.Absorbed
		}
		if s.traced {
			c.traceEvents += w.traceEvents(ctx, s)
		}
	}
	return c
}

func (w *serveWorld) promGet(ctx context.Context, url string) map[string]float64 {
	_, data, _ := w.get(ctx, url) // an unreachable page reads as all zeros
	return parseProm(string(data))
}

// traceEvents asks the front door how many span events the program itself
// recorded for the job (GET /v1/jobs/{id}/trace).
func (w *serveWorld) traceEvents(ctx context.Context, s sample) int64 {
	if s.front == nil || s.front.ID == "" {
		return 0
	}
	var ex struct {
		Total       int               `json:"total"`       // a worker's export envelope
		TraceEvents []json.RawMessage `json:"traceEvents"` // the coordinator's merged trace
	}
	if _, err := w.getJSON(ctx, w.front+"/v1/jobs/"+s.front.ID+"/trace", &ex); err != nil {
		return 0
	}
	return int64(ex.Total + len(ex.TraceEvents))
}
