package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// Journal shipping: a warm standby tails the leader's routing WAL over
// a chunked HTTP stream (GET /cluster/v1/replicate?after=N) and applies
// every record into its own WAL, so at promotion time its journal — and
// therefore its recovered routing state — matches the leader's up to
// the last shipped record.
//
// The stream is newline-delimited JSON. The first frame is a hello
// carrying the leader's epoch and total record count (a total below the
// follower's position means the leader's journal was compacted or
// replaced: the follower wipes and resyncs from zero). Record frames
// carry (index, kind, payload); submitted records — and snapshot
// records, for the jobs in them that are still active — additionally
// carry the spilled query FASTA so the standby can preserve the
// spill-before-journal invariant on its own disk. Keepalive frames flow
// when the log is idle; frame silence longer than the standby's
// promotion window is the leader-loss signal.

// repFrame is one line of the replication stream.
type repFrame struct {
	Hello bool   `json:"hello,omitempty"`
	KA    bool   `json:"ka,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	Total uint64 `json:"total,omitempty"`

	Index   uint64 `json:"index,omitempty"` // 1-based record position
	Kind    uint8  `json:"kind,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	Query   []byte `json:"query,omitempty"` // submitted records: spilled FASTA
	// Queries carries, with a snapshot record, the spilled FASTA of each
	// job in it that is still active, by job id: a standby that syncs a
	// compacted journal never sees their submitted records.
	Queries map[string][]byte `json:"queries,omitempty"`
}

// replicationHub is the leader's in-memory copy of the routing WAL's
// record sequence, seeded from the journal at startup and appended to
// under the journal's own lock (so hub order is WAL order). Streams
// read from it by index. The hub also tracks each follower's shipped
// position — records and payload bytes — which is what the
// replication-lag gauges on /metrics/cluster are computed from.
type replicationHub struct {
	mu      sync.Mutex
	recs    []checkpoint.Record
	cum     []uint64 // cum[i] = payload bytes of recs[:i+1]
	changed chan struct{}
	// followers maps a follower id (the ?follower= the standby sends, or
	// its remote address) to the last position its stream acknowledged by
	// consuming it. Entries persist after disconnect on purpose: a dead
	// standby's lag keeps growing, which is exactly the alert signal.
	followers map[string]followerPos
}

// followerPos is how far one follower's stream has shipped.
type followerPos struct {
	frames uint64
	bytes  uint64
}

// replLag is one follower's distance behind the leader.
type replLag struct {
	frames uint64
	bytes  uint64
}

func newReplicationHub(seed []checkpoint.Record) *replicationHub {
	recs := make([]checkpoint.Record, len(seed))
	copy(recs, seed)
	h := &replicationHub{recs: recs, changed: make(chan struct{}), followers: make(map[string]followerPos)}
	h.cum = make([]uint64, len(recs))
	var sum uint64
	for i, rec := range recs {
		sum += uint64(len(rec.Payload))
		h.cum[i] = sum
	}
	return h
}

func (h *replicationHub) publish(rec checkpoint.Record) {
	h.mu.Lock()
	h.recs = append(h.recs, rec)
	var prev uint64
	if n := len(h.cum); n > 0 {
		prev = h.cum[n-1]
	}
	h.cum = append(h.cum, prev+uint64(len(rec.Payload)))
	close(h.changed)
	h.changed = make(chan struct{})
	h.mu.Unlock()
}

// bytesAtLocked returns the cumulative payload bytes of the first n
// records. Requires h.mu.
func (h *replicationHub) bytesAtLocked(n uint64) uint64 {
	if n == 0 || len(h.cum) == 0 {
		return 0
	}
	if n > uint64(len(h.cum)) {
		n = uint64(len(h.cum))
	}
	return h.cum[n-1]
}

// observeFollower records that follower id's stream has shipped the
// first pos records.
func (h *replicationHub) observeFollower(id string, pos uint64) {
	h.mu.Lock()
	h.followers[id] = followerPos{frames: pos, bytes: h.bytesAtLocked(pos)}
	h.mu.Unlock()
}

// followerLags snapshots every known follower's lag behind the hub.
func (h *replicationHub) followerLags() map[string]replLag {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := uint64(len(h.recs))
	totalBytes := h.bytesAtLocked(total)
	out := make(map[string]replLag, len(h.followers))
	for id, p := range h.followers {
		lag := replLag{}
		if p.frames < total {
			lag.frames = total - p.frames
		}
		if p.bytes < totalBytes {
			lag.bytes = totalBytes - p.bytes
		}
		out[id] = lag
	}
	return out
}

// since returns the records after position `after` (a record count), the
// current total, and a channel closed on the next publish.
func (h *replicationHub) since(after uint64) ([]checkpoint.Record, uint64, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := uint64(len(h.recs))
	if after >= total {
		return nil, total, h.changed
	}
	out := make([]checkpoint.Record, total-after)
	copy(out, h.recs[after:])
	return out, total, h.changed
}

func (h *replicationHub) total() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return uint64(len(h.recs))
}

// serveReplicate streams the routing WAL to one follower.
func (c *Coordinator) serveReplicate(w http.ResponseWriter, r *http.Request) {
	if c.hub == nil {
		server.WriteError(w, http.StatusServiceUnavailable, "replication requires -journal-dir")
		return
	}
	var after uint64
	if s := r.URL.Query().Get("after"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "bad after offset %q", s)
			return
		}
		after = v
	}
	// The follower's stable identity keys its replication-lag series; a
	// standby that reconnects under the same id resumes the same series
	// rather than leaving a stale one per ephemeral port.
	follower := r.URL.Query().Get("follower")
	if follower == "" {
		follower = r.RemoteAddr
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		server.WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if err := enc.Encode(repFrame{Hello: true, Epoch: c.epoch, Total: c.hub.total()}); err != nil {
		return
	}
	fl.Flush()
	c.hub.observeFollower(follower, after)
	keepalive := c.cfg.LeaseTTL / 3
	for {
		recs, total, changed := c.hub.since(after)
		for i, rec := range recs {
			f := repFrame{Index: after + uint64(i) + 1, Kind: rec.Kind, Payload: rec.Payload}
			switch rec.Kind {
			case ckKindSubmitted:
				var sub ckSubmitted
				if err := json.Unmarshal(rec.Payload, &sub); err == nil {
					if q, err := c.wal.loadQuery(sub.ID); err == nil {
						f.Query = []byte(q)
					}
				}
			case ckKindSnapshot:
				var snap ckSnapshot
				if err := json.Unmarshal(rec.Payload, &snap); err == nil {
					f.Queries = make(map[string][]byte)
					for _, sj := range snap.Jobs {
						if sj.Finished != nil {
							continue
						}
						if q, err := c.wal.loadQuery(sj.Sub.ID); err == nil {
							f.Queries[sj.Sub.ID] = []byte(q)
						}
					}
				}
			}
			if err := enc.Encode(f); err != nil {
				return
			}
		}
		if len(recs) > 0 {
			fl.Flush()
			after = total
			c.hub.observeFollower(follower, after)
			continue
		}
		select {
		case <-changed:
		case <-c.cfg.Clock.After(keepalive):
			// Keepalives carry the current total so an idle follower can
			// keep its own lag gauge honest without a record flowing.
			if err := enc.Encode(repFrame{KA: true, Epoch: c.epoch, Total: c.hub.total()}); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-c.ctx.Done():
			return
		}
	}
}

// StandbyConfig parameterizes a warm standby.
type StandbyConfig struct {
	// LeaderURL is the base URL of the coordinator to replicate.
	LeaderURL string
	// JournalDir is where the shipped journal lands. Required — a
	// standby exists to hold a durable copy.
	JournalDir string
	// PromoteAfter is how long the replication stream may go silent
	// (no record, no keepalive, no reconnect) before the standby
	// declares the leader dead and promotes (default: the coordinator
	// config's lease TTL, after defaults).
	PromoteAfter time.Duration
	// Coordinator is the configuration the standby promotes with;
	// JournalDir is overridden with the standby's own.
	Coordinator Config
	// Transport reaches the leader (default http.DefaultTransport).
	Transport http.RoundTripper
	// Clock drives reconnect backoff and the promotion window.
	Clock faultinject.Clock
	// Log receives operational messages.
	Log *slog.Logger
}

// Standby tails a leader's routing WAL into a local journal and
// promotes itself to a full Coordinator when the leader goes silent.
// Its Handler serves 503 (pointing at the leader) until promotion, then
// delegates to the promoted coordinator — so a standby can sit behind
// the same address before and after failover.
type Standby struct {
	cfg     StandbyConfig
	client  *http.Client
	log     *slog.Logger
	metrics *obs.Registry

	j       *checkpoint.Journal
	dir     string
	records uint64

	mu          sync.Mutex
	lastFrame   time.Time
	epoch       uint64 // last epoch seen from the leader
	leaderTotal uint64 // leader's record count, from hello/keepalive frames
	coord       *Coordinator

	promotedCh chan struct{}
}

// NewStandby opens (creating if needed) the standby's local journal.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.JournalDir == "" {
		return nil, errors.New("cluster: standby requires JournalDir")
	}
	if cfg.Clock == nil {
		cfg.Clock = faultinject.RealClock()
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.PromoteAfter <= 0 {
		cfg.PromoteAfter = cfg.Coordinator.withDefaults().LeaseTTL
	}
	j, recs, err := checkpoint.Open(filepath.Join(cfg.JournalDir, "wal"), checkpoint.Options{})
	if err != nil {
		return nil, fmt.Errorf("cluster: opening standby journal: %w", err)
	}
	s := &Standby{
		cfg:        cfg,
		client:     &http.Client{Transport: cfg.Transport},
		log:        cfg.Log,
		metrics:    obs.NewRegistry(),
		j:          j,
		dir:        cfg.JournalDir,
		records:    uint64(len(recs)),
		lastFrame:  cfg.Clock.Now(),
		promotedCh: make(chan struct{}),
	}
	obs.RegisterBuildInfo(s.metrics)
	s.metrics.GaugeFunc("darwinwga_standby_records", "journal records the standby holds",
		func() float64 { return float64(s.Records()) })
	s.metrics.GaugeFunc("darwinwga_standby_replication_lag_frames",
		"journal records the standby is behind the leader's last-announced total",
		func() float64 { return float64(s.LagFrames()) })
	s.metrics.GaugeFunc("darwinwga_standby_silence_seconds",
		"seconds since the last replication frame from the leader",
		func() float64 { return s.silentFor().Seconds() })
	return s, nil
}

// LagFrames is how many records the standby is behind the leader's
// last-announced journal total (hello and keepalive frames carry it).
func (s *Standby) LagFrames() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leaderTotal <= s.records {
		return 0
	}
	return s.leaderTotal - s.records
}

// followerID is the stable identity the standby announces on its
// replication stream, keying its lag series on the leader.
func (s *Standby) followerID() string {
	return "standby:" + filepath.Base(s.dir)
}

// Records returns how many WAL records the standby holds.
func (s *Standby) Records() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Promoted returns the promoted coordinator, or nil before promotion.
func (s *Standby) Promoted() *Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord
}

// PromotedCh is closed at promotion.
func (s *Standby) PromotedCh() <-chan struct{} { return s.promotedCh }

// Handler serves 503 + the leader's address until promotion, then the
// promoted coordinator's full API.
func (s *Standby) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c := s.Promoted(); c != nil {
			c.Handler().ServeHTTP(w, r)
			return
		}
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"ok":true,"role":"standby","leader":%q,"records":%d,"lag_frames":%d}`+"\n",
				s.cfg.LeaderURL, s.Records(), s.LagFrames())
			return
		}
		if r.URL.Path == "/metrics" || r.URL.Path == "/metrics/cluster" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			s.metrics.WritePrometheus(w) //nolint:errcheck // response committed
			return
		}
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, "standby for %s: not leader", s.cfg.LeaderURL)
	})
}

// Run tails the leader until promotion (returns nil) or ctx ends. The
// promotion decision is frame silence: records, keepalives, and even
// failed reconnect attempts that reach the leader all count as life;
// only PromoteAfter without any of them promotes.
func (s *Standby) Run(ctx context.Context) error {
	retry := core.RetryPolicy{MaxAttempts: 0, BaseDelay: 250 * time.Millisecond, MaxDelay: 2 * time.Second}
	attempt := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if s.silentFor() >= s.cfg.PromoteAfter {
			return s.promote()
		}
		err := s.tailOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			attempt++
			s.log.Warn("replication stream lost", "leader", s.cfg.LeaderURL, "err", err, "attempt", attempt)
		} else {
			attempt = 0
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.cfg.Clock.After(retry.Backoff(attempt+1, hash64(s.cfg.LeaderURL))):
		}
	}
}

func (s *Standby) silentFor() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Clock.Now().Sub(s.lastFrame)
}

func (s *Standby) stampFrame(epoch, leaderTotal uint64) {
	s.mu.Lock()
	s.lastFrame = s.cfg.Clock.Now()
	if epoch > s.epoch {
		s.epoch = epoch
	}
	if leaderTotal > s.leaderTotal {
		s.leaderTotal = leaderTotal
	}
	s.mu.Unlock()
}

// tailOnce opens one replication stream and consumes it until it breaks
// or the watchdog cancels it for silence.
func (s *Standby) tailOnce(ctx context.Context) error {
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Watchdog: a stream that stops delivering frames (half-open TCP
	// after a leader SIGKILL, a partition) must not hold tailOnce open
	// past the promotion window.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		tick := s.cfg.PromoteAfter / 4
		if tick <= 0 {
			tick = time.Second
		}
		for {
			select {
			case <-watchdogDone:
				return
			case <-reqCtx.Done():
				return
			case <-s.cfg.Clock.After(tick):
				if s.silentFor() >= s.cfg.PromoteAfter {
					cancel()
					return
				}
			}
		}
	}()

	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet,
		s.cfg.LeaderURL+"/cluster/v1/replicate?after="+strconv.FormatUint(s.Records(), 10)+
			"&follower="+url.QueryEscape(s.followerID()), nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()              //nolint:errcheck
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("leader replied %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 128<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f repFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("bad replication frame: %w", err)
		}
		// A record at index N proves the leader holds at least N records,
		// even though only hello/keepalive frames carry an explicit total.
		leaderTotal := f.Total
		if f.Index > leaderTotal {
			leaderTotal = f.Index
		}
		s.stampFrame(f.Epoch, leaderTotal)
		switch {
		case f.Hello:
			if !first {
				return errors.New("hello frame mid-stream")
			}
			if f.Total < s.Records() {
				// The leader's journal shrank past our position — it was
				// compacted or replaced. Resync from zero.
				s.log.Warn("leader journal behind local copy; resyncing",
					"leader_total", f.Total, "local", s.Records())
				if err := s.resetJournal(); err != nil {
					return err
				}
				return nil // reconnect with after=0
			}
		case f.KA:
			// Liveness only; already stamped.
		default:
			if err := s.applyRecord(f); err != nil {
				return err
			}
		}
		first = false
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("replication stream closed")
}

// applyRecord appends one shipped record to the local WAL, spilling the
// query first for submitted records — the same spill-before-journal
// order the leader used.
func (s *Standby) applyRecord(f repFrame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.Index != s.records+1 {
		return fmt.Errorf("replication gap: got index %d, have %d records", f.Index, s.records)
	}
	queries := f.Queries
	if f.Kind == ckKindSubmitted && len(f.Query) > 0 {
		var sub ckSubmitted
		if err := json.Unmarshal(f.Payload, &sub); err != nil {
			return fmt.Errorf("shipped submitted record: %w", err)
		}
		queries = map[string][]byte{sub.ID: f.Query}
	}
	files := server.NewArtifacts(s.dir, nil)
	for id, q := range queries {
		if err := files.Put(ownQuery.Rel(id), q); err != nil {
			return fmt.Errorf("spilling shipped query: %w", err)
		}
	}
	if err := s.j.Append(f.Kind, f.Payload); err != nil {
		return err
	}
	s.records++
	return nil
}

// resetJournal wipes the local WAL so the next connect resyncs from 0.
func (s *Standby) resetJournal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.j.Close(); err != nil {
		return err
	}
	walDir := filepath.Join(s.dir, "wal")
	if err := checkpoint.Remove(walDir); err != nil {
		return err
	}
	j, recs, err := checkpoint.Open(walDir, checkpoint.Options{})
	if err != nil {
		return err
	}
	if len(recs) != 0 {
		j.Close() //nolint:errcheck
		return fmt.Errorf("journal not empty after reset: %d records", len(recs))
	}
	s.j = j
	s.records = 0
	return nil
}

// promote closes the replica journal and constructs a full Coordinator
// over it. Coordinator.New bumps the epoch past everything journaled —
// including the old leader's — which is what fences the old leader out.
func (s *Standby) promote() error {
	s.mu.Lock()
	if err := s.j.Close(); err != nil {
		s.mu.Unlock()
		return err
	}
	cfg := s.cfg.Coordinator
	cfg.JournalDir = s.dir
	records, lastEpoch := s.records, s.epoch
	s.mu.Unlock()

	coord, err := New(cfg)
	if err != nil {
		return fmt.Errorf("cluster: standby promotion: %w", err)
	}
	s.log.Info("standby promoted to leader",
		"records", records, "old_epoch", lastEpoch, "epoch", coord.Epoch())
	s.mu.Lock()
	s.coord = coord
	s.mu.Unlock()
	close(s.promotedCh)
	return nil
}

// Shutdown stops the standby (or its promoted coordinator).
func (s *Standby) Shutdown(ctx context.Context) error {
	if c := s.Promoted(); c != nil {
		return c.Shutdown(ctx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Close()
}
