package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// EpochHeader carries the dispatching coordinator's fencing epoch on
// every coordinator→worker request. Workers track the highest epoch
// seen and reject lower ones with 409, which is what keeps a partitioned
// old leader from split-brain dispatching. Requests without the header
// (standalone clients) are not fenced.
const EpochHeader = server.ClusterEpochHeader

// TraceHeader propagates the distributed trace id on coordinator→worker
// dispatches (and is honored on client→coordinator submissions).
const TraceHeader = server.TraceHeader

// workerSubmit is the body dispatched to a worker's POST /v1/jobs — the
// server's submitRequest shape with the query inlined from the
// coordinator's spill.
type workerSubmit struct {
	Target     string `json:"target"`
	QueryFASTA string `json:"query_fasta"`
	QueryName  string `json:"query_name,omitempty"`
	Client     string `json:"client,omitempty"`
	// TraceID propagates the cluster-wide distributed trace id so every
	// attempt's spans — on whichever worker — tag into one trace.
	TraceID string `json:"trace_id,omitempty"`
	// JournalShip is the coordinator artifact-store base URL the worker
	// ships this job's pipeline-journal segments to (and downloads them
	// from when resuming after a failover).
	JournalShip string `json:"journal_ship,omitempty"`

	Ungapped          bool  `json:"ungapped,omitempty"`
	ForwardOnly       bool  `json:"forward_only,omitempty"`
	Hf                int32 `json:"hf,omitempty"`
	He                int32 `json:"he,omitempty"`
	MaxCandidates     int64 `json:"max_candidates,omitempty"`
	MaxFilterTiles    int64 `json:"max_filter_tiles,omitempty"`
	MaxExtensionCells int64 `json:"max_extension_cells,omitempty"`
	DeadlineMS        int64 `json:"deadline_ms,omitempty"`
}

// workerStatus is the subset of a worker's job status the coordinator
// reads.
type workerStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	HSPs     int64  `json:"hsps"`
	MAFBytes int    `json:"maf_bytes"`
}

// cancelOnClose ties a request's context cancel to the response body's
// lifetime so doRequest's watchdog goroutine can always be released.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// doRequest performs one HTTP request against a worker with the
// per-request timeout driven by the coordinator's Clock — not a context
// deadline — so ManualClock chaos tests control exactly when a slow
// worker "times out". cancelCh (may be nil) aborts the request early.
func (c *Coordinator) doRequest(req *http.Request, cancelCh <-chan struct{}) (*http.Response, error) {
	return c.doRequestTimeout(req, cancelCh, c.cfg.DispatchTimeout)
}

// doRequestTimeout is doRequest with an explicit timeout — shard work
// units run under their own lease (cfg.ShardLease), much longer than
// the control-plane DispatchTimeout, because the in-flight request is
// the unit's execution.
func (c *Coordinator) doRequestTimeout(req *http.Request, cancelCh <-chan struct{}, timeout time.Duration) (*http.Response, error) {
	ctx, cancel := context.WithCancel(req.Context())
	req = req.WithContext(ctx)
	req.Header.Set(EpochHeader, strconv.FormatUint(c.epoch, 10))
	type result struct {
		resp *http.Response
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := c.client.Do(req)
		ch <- result{resp, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			cancel()
			return nil, r.err
		}
		if r.resp.StatusCode == http.StatusConflict && r.resp.Header.Get(EpochHeader) != "" {
			// The worker knows a newer epoch: a standby promoted past us.
			// Stop dispatching — the new leader owns these jobs.
			if c.fenced.CompareAndSwap(false, true) {
				c.log.Error("fenced: worker rejected stale epoch; ceasing dispatch",
					"worker", req.URL.Host, "epoch", c.epoch,
					"worker_epoch", r.resp.Header.Get(EpochHeader))
			}
		}
		r.resp.Body = &cancelOnClose{ReadCloser: r.resp.Body, cancel: cancel}
		return r.resp, nil
	case <-c.cfg.Clock.After(timeout):
		cancel()
		<-ch
		return nil, fmt.Errorf("cluster: request to %s timed out after %v",
			req.URL.Host, timeout)
	case <-cancelCh:
		cancel()
		<-ch
		return nil, fmt.Errorf("cluster: request to %s aborted: job cancelled", req.URL.Host)
	case <-c.ctx.Done():
		cancel()
		<-ch
		return nil, fmt.Errorf("cluster: request to %s aborted: coordinator shutting down", req.URL.Host)
	}
}

// drainClose discards and closes a response body so the transport's
// connection can be reused.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
	resp.Body.Close()                                     //nolint:errcheck
}

// dispatchTo places the job on one worker, retrying per the retry
// policy with exponential backoff and jitter. Transport failures are
// charged to the worker's breaker; HTTP-level rejections are not (the
// transport worked). Returns the worker-side job id.
func (c *Coordinator) dispatchTo(j *coordJob, m *Member) (string, error) {
	payload, err := json.Marshal(workerSubmit{
		Target:            j.Target,
		QueryFASTA:        j.queryFASTA,
		QueryName:         j.QueryName,
		Client:            "coord/" + j.Client,
		TraceID:           j.TraceID,
		JournalShip:       c.shipURLFor(j.ID),
		Ungapped:          j.Spec.Ungapped,
		ForwardOnly:       j.Spec.ForwardOnly,
		Hf:                j.Spec.Hf,
		He:                j.Spec.He,
		MaxCandidates:     j.Spec.MaxCandidates,
		MaxFilterTiles:    j.Spec.MaxFilterTiles,
		MaxExtensionCells: j.Spec.MaxExtensionCells,
		DeadlineMS:        j.Spec.DeadlineMS,
	})
	if err != nil {
		return "", err
	}
	attempts := c.cfg.Retry.Attempts()
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			select {
			case <-c.cfg.Clock.After(c.cfg.Retry.Backoff(attempt-1, hash64(j.ID+m.ID))):
			case <-j.cancelCh:
				return "", fmt.Errorf("cluster: dispatch aborted: job cancelled")
			case <-c.ctx.Done():
				return "", fmt.Errorf("cluster: dispatch aborted: shutting down")
			}
		}
		req, rerr := http.NewRequest(http.MethodPost, m.Addr+"/v1/jobs", bytes.NewReader(payload))
		if rerr != nil {
			return "", rerr
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TraceHeader, j.TraceID)
		resp, rerr := c.doRequest(req, j.cancelCh)
		if rerr != nil {
			c.brk.Failure(m.ID)
			c.c.dispatchErrors.Inc()
			lastErr = rerr
			continue
		}
		// The transport worked regardless of the status code.
		c.brk.Success(m.ID)
		if resp.StatusCode == http.StatusAccepted {
			var st workerStatus
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close() //nolint:errcheck
			if derr != nil {
				lastErr = fmt.Errorf("cluster: decoding worker accept: %w", derr)
				continue
			}
			if st.ID == "" {
				lastErr = fmt.Errorf("cluster: worker accepted without a job id")
				continue
			}
			return st.ID, nil
		}
		code := resp.StatusCode
		drainClose(resp)
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			// Worker admission pushed back; backoff and retry.
			lastErr = fmt.Errorf("cluster: worker %s busy (%d)", m.ID, code)
			continue
		}
		// Anything else (404 unknown target, 4xx) will not get better
		// by retrying against this worker.
		return "", fmt.Errorf("cluster: worker %s rejected dispatch: HTTP %d", m.ID, code)
	}
	return "", lastErr
}

// workerTrace fetches the incremental span buffer an assignment's
// worker holds for its job — events past cursor `after`, plus the
// worker's identity and drop count. Best-effort by contract: callers
// treat every error as "no new spans this poll".
func (c *Coordinator) workerTrace(j *coordJob, a assignment, after int) (*obs.TraceExport, error) {
	req, err := http.NewRequest(http.MethodGet,
		a.WorkerAddr+"/v1/jobs/"+a.WorkerJobID+"/trace?after="+strconv.Itoa(after), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.doRequest(req, j.cancelCh)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		drainClose(resp)
		return nil, fmt.Errorf("cluster: worker %s: trace HTTP %d", a.WorkerID, resp.StatusCode)
	}
	var ex obs.TraceExport
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		return nil, fmt.Errorf("cluster: decoding worker trace: %w", err)
	}
	return &ex, nil
}

// workerEvents fetches an assignment's worker-side flight-recorder
// events, for merging into the coordinator's GET /v1/jobs/{id}/events.
func (c *Coordinator) workerEvents(j *coordJob, a assignment) ([]obs.FlightEvent, error) {
	req, err := http.NewRequest(http.MethodGet,
		a.WorkerAddr+"/v1/jobs/"+a.WorkerJobID+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.doRequest(req, j.cancelCh)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		drainClose(resp)
		return nil, fmt.Errorf("cluster: worker %s: events HTTP %d", a.WorkerID, resp.StatusCode)
	}
	var body struct {
		Events []obs.FlightEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("cluster: decoding worker events: %w", err)
	}
	return body.Events, nil
}

// workerJobStatus polls one assignment's status on its worker.
func (c *Coordinator) workerJobStatus(j *coordJob, a assignment) (*workerStatus, error) {
	req, err := http.NewRequest(http.MethodGet, a.WorkerAddr+"/v1/jobs/"+a.WorkerJobID, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.doRequest(req, j.cancelCh)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		drainClose(resp)
		return nil, fmt.Errorf("cluster: worker %s: status HTTP %d", a.WorkerID, resp.StatusCode)
	}
	var st workerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("cluster: decoding worker status: %w", err)
	}
	return &st, nil
}

// openMAFStream opens a streaming GET of an assignment's MAF. The
// caller owns the response body. No clock timeout: MAF streams
// legitimately run for the life of a job; the caller's request context
// bounds it.
func (c *Coordinator) openMAFStream(ctx context.Context, a assignment) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		a.WorkerAddr+"/v1/jobs/"+a.WorkerJobID+"/maf", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(EpochHeader, strconv.FormatUint(c.epoch, 10))
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		drainClose(resp)
		return nil, fmt.Errorf("cluster: worker %s: maf HTTP %d", a.WorkerID, resp.StatusCode)
	}
	return resp, nil
}
