package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

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

// cancelOnClose ties a request's context cancel to the response body's
// lifetime so doRequestTimeout's watchdog goroutine can always be released.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// errAborted marks a request the coordinator itself gave up on (job
// cancelled, unit settled or held read superseded, shutdown) — not the worker's fault.
var errAborted = errors.New("aborted")

// doRequestTimeout performs one HTTP request against a worker with the
// timeout driven by the coordinator's Clock — not a context deadline —
// so ManualClock chaos tests control exactly when a slow worker "times
// out". Control-plane calls run under cfg.DispatchTimeout; a shard work
// unit runs under its own, much longer lease (cfg.ShardLease), because
// the in-flight request is the unit's execution. cancelCh and wake (either
// may be nil) abort the request early.
func (c *Coordinator) doRequestTimeout(req *http.Request, cancelCh, wake <-chan struct{}, timeout time.Duration) (*http.Response, error) {
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
	var why string // the coordinator's own reason for giving up
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
		why = "job cancelled"
	case <-wake:
		why = "superseded"
	case <-c.ctx.Done():
		why = "coordinator shutting down"
	}
	cancel()
	<-ch
	return nil, fmt.Errorf("cluster: request to %s %w: %s", req.URL.Host, errAborted, why)
}

// drainClose discards and closes a response body so the transport's
// connection can be reused.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
	resp.Body.Close()                                     //nolint:errcheck
}

// workerReq describes one JSON round-trip to a worker.
type workerReq struct {
	worker  string // worker id: breaker key and error label
	method  string
	url     string
	body    any             // request body: nil = none, []byte = JSON already encoded, else encoded here
	traceID string          // X-Darwinwga-Trace, when set
	cancel  <-chan struct{} // aborts the request early; nil never fires
	wake    <-chan struct{} // likewise: what a held read gives way to
	timeout time.Duration   // 0 = cfg.DispatchTimeout
	want    int             // the success status
}

// workerHTTPError is a worker's answer with a status other than the
// one the call wanted.
type workerHTTPError struct {
	worker string
	code   int
	body   string
}

func (e *workerHTTPError) Error() string {
	return fmt.Sprintf("cluster: worker %s: HTTP %d: %s", e.worker, e.code, e.body)
}

// refused reports a client error that is the worker's verdict on the
// request itself: no retry and no later attempt will change it. (404,
// 409, 429 and 503 are about the worker's state, not the request.)
func (e *workerHTTPError) refused() bool {
	return e.code == http.StatusBadRequest || e.code == http.StatusRequestEntityTooLarge ||
		e.code == http.StatusUnprocessableEntity
}

// workerCall is the one coordinator→worker round-trip: build the
// request, send it under the epoch header and the Clock-driven timeout
// (doRequestTimeout, which also latches fencing on a worker's 409),
// charge the worker's breaker — a transport failure or timeout counts
// against it, any HTTP answer counts for it because the transport
// worked, a request the coordinator aborted counts for nothing — check
// the status and decode the JSON body into T.
func workerCall[T any](c *Coordinator, rq workerReq) (out T, err error) {
	var body io.Reader
	if rq.body != nil {
		payload, encoded := rq.body.([]byte)
		if !encoded {
			if payload, err = json.Marshal(rq.body); err != nil {
				return out, err
			}
		}
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(rq.method, rq.url, body)
	if err != nil {
		return out, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rq.traceID != "" {
		req.Header.Set(TraceHeader, rq.traceID)
	}
	timeout := rq.timeout
	if timeout == 0 {
		timeout = c.cfg.DispatchTimeout
	}
	resp, err := c.doRequestTimeout(req, rq.cancel, rq.wake, timeout)
	if err != nil {
		if !errors.Is(err, errAborted) {
			c.brk.Failure(rq.worker)
			c.c.dispatchErrors.Inc()
		}
		return out, err
	}
	c.brk.Success(rq.worker)
	if resp.StatusCode != rq.want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		drainClose(resp)
		return out, &workerHTTPError{worker: rq.worker, code: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		return out, fmt.Errorf("cluster: worker %s: decoding %s %s response: %w",
			rq.worker, rq.method, req.URL.Path, err)
	}
	return out, nil
}

// jobCall is workerCall against one assignment's worker-side job:
// GET "" is its status (GET "?wait=D" the same, held until the job is
// terminal or D elapses, and giving way to wake), GET "/trace?after=N"
// its span delta, GET "/events" its flight ring, DELETE "" its cancellation.
func jobCall[T any](c *Coordinator, a assignment, cancel, wake <-chan struct{}, method, suffix string) (T, error) {
	return workerCall[T](c, workerReq{
		worker: a.WorkerID, method: method, url: a.WorkerAddr + "/v1/jobs/" + a.WorkerJobID + suffix,
		cancel: cancel, wake: wake, want: http.StatusOK,
	})
}

// dispatchTo places the job on one worker, retrying per the retry
// policy with exponential backoff and jitter while the worker's
// admission pushes back (429/503) or the transport fails. Returns the
// worker-side job id; any other status is final for this worker.
func (c *Coordinator) dispatchTo(j *coordJob, m *Member) (string, error) {
	// Encoded once: every retry re-sends the same (possibly large) bytes.
	sub, err := json.Marshal(server.SubmitRequest{
		Target:      j.Target,
		QueryFASTA:  j.query(),
		QueryName:   j.QueryName,
		Client:      "coord/" + j.Client,
		TraceID:     j.TraceID,
		JournalShip: c.shipURLFor(j.ID),
		JobSpec:     j.Spec,
	})
	if err != nil {
		return "", err
	}
	var lastErr error
	for attempt := 1; attempt <= workerRetry.Attempts(); attempt++ {
		if attempt > 1 && c.wait(workerRetry.Backoff(attempt-1, hash64(j.ID+m.ID)), j.cancelCh, nil) != wokeTimer {
			return "", fmt.Errorf("cluster: dispatch %w: job cancelled or coordinator shutting down", errAborted)
		}
		st, err := workerCall[server.JobStatus](c, workerReq{
			worker: m.ID, method: http.MethodPost, url: m.Addr + "/v1/jobs",
			body: sub, traceID: j.TraceID, cancel: j.cancelCh, want: http.StatusAccepted,
		})
		var herr *workerHTTPError
		switch {
		case err == nil && st.ID != "":
			return st.ID, nil
		case err == nil:
			lastErr = fmt.Errorf("cluster: worker accepted without a job id")
		case errors.As(err, &herr) && herr.code != http.StatusTooManyRequests && herr.code != http.StatusServiceUnavailable:
			// Anything but admission push-back (404 unknown target, 4xx)
			// will not get better by retrying against this worker.
			return "", err
		default:
			lastErr = err
		}
	}
	return "", lastErr
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
