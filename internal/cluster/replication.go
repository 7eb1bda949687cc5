package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"net/url"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/core"
	"darwinwga/internal/faultinject"
	"darwinwga/internal/obs"
	"darwinwga/internal/server"
)

// Journal shipping: a warm standby tails the leader's routing WAL over a
// chunked HTTP stream (GET /cluster/v1/replicate?after=N&chain=H) and
// applies every record into its own WAL, so at promotion time its
// journal — and therefore its recovered routing state — matches the
// leader's up to the last shipped record.
//
// The follower names its position by record count and chain hash (the
// hash of every record it holds, in order), so the leader can tell
// exactly whether those records are a prefix of its own journal. The
// stream is newline-delimited JSON. The first frame is a hello carrying
// the leader's epoch and total record count. When the follower's records
// are not a prefix — the leader's journal was rewritten or replaced
// since they were shipped — the hello says reset and the stream ships
// the whole journal from index 1; a leader that rewrites its journal
// while running sends the same reset hello on every open stream. The
// follower keeps its own journal until it holds every record a reset
// announced, then swaps it in with one Compact. Record frames carry
// (index, kind, payload); submitted records — and snapshot records, for
// the jobs in them that are still active — additionally carry the
// spilled query FASTA so the standby can preserve the spill-before-
// journal invariant on its own disk. Keepalive frames flow when the log
// is idle; frame silence longer than the standby's promotion window is
// the leader-loss signal.

// repFrame is one line of the replication stream.
type repFrame struct {
	Hello bool   `json:"hello,omitempty"`
	Reset bool   `json:"reset,omitempty"` // hello: what follows replaces the follower's journal
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
// record sequence, seeded from the journal at startup, appended to under
// the journal's own lock (so hub order is WAL order) and reseeded when
// the journal is rewritten. Streams read from it by position. The hub
// also tracks each follower's shipped position — records and payload
// bytes — which is what the replication-lag gauges on /metrics/cluster
// are computed from.
type replicationHub struct {
	mu      sync.Mutex
	recs    []checkpoint.Record
	cum     []uint64 // cum[i] = payload bytes of recs[:i+1]
	chain   []uint64 // chain[i] = chain hash of recs[:i+1]
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
	h := &replicationHub{changed: make(chan struct{}), followers: make(map[string]followerPos)}
	h.appendLocked(seed...)
	return h
}

// repPos is a position in a replicated record sequence: the number of
// records before it and their chain hash, which tells one sequence's
// prefix from another's of the same length.
type repPos struct {
	n     uint64
	chain uint64
}

// next is the position after rec.
func (p repPos) next(rec checkpoint.Record) repPos {
	h := fnv.New64a()
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:8], p.chain)
	b[8] = rec.Kind
	h.Write(b[:])        //nolint:errcheck // hash.Hash never errors
	h.Write(rec.Payload) //nolint:errcheck
	return repPos{n: p.n + 1, chain: h.Sum64()}
}

// posAfter is the position after recs.
func posAfter(recs []checkpoint.Record) repPos {
	var p repPos
	for _, rec := range recs {
		p = p.next(rec)
	}
	return p
}

// appendLocked adds records and wakes every stream. Requires h.mu (or
// sole ownership).
func (h *replicationHub) appendLocked(recs ...checkpoint.Record) {
	for _, rec := range recs {
		n := uint64(len(h.recs))
		h.cum = append(h.cum, h.bytesAtLocked(n)+uint64(len(rec.Payload)))
		h.chain = append(h.chain, h.posLocked(n).next(rec).chain)
		h.recs = append(h.recs, rec)
	}
	close(h.changed)
	h.changed = make(chan struct{})
}

func (h *replicationHub) publish(rec checkpoint.Record) {
	h.mu.Lock()
	h.appendLocked(rec)
	h.mu.Unlock()
}

// reseed replaces the records with a rewritten journal's. Every open
// stream then finds its position gone and restarts from zero (see
// serveReplicate).
func (h *replicationHub) reseed(recs []checkpoint.Record) {
	h.mu.Lock()
	h.recs, h.cum, h.chain = nil, nil, nil
	h.appendLocked(recs...)
	h.mu.Unlock()
}

// posLocked is the position after the first n records. Requires h.mu.
func (h *replicationHub) posLocked(n uint64) repPos {
	if n == 0 {
		return repPos{}
	}
	return repPos{n: n, chain: h.chain[n-1]}
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

// since returns the records after p, the position after them, and a
// channel closed on the next publish or reseed. ok is false, with no
// records, when the hub's records do not extend p: the journal was
// rewritten or replaced since p was taken.
func (h *replicationHub) since(p repPos) (recs []checkpoint.Record, end repPos, ok bool, changed <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := uint64(len(h.recs))
	if p.n > total || h.posLocked(p.n) != p {
		return nil, repPos{}, false, h.changed
	}
	return slices.Clone(h.recs[p.n:]), h.posLocked(total), true, h.changed
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
	var pos repPos
	for name, v := range map[string]*uint64{"after": &pos.n, "chain": &pos.chain} {
		if s := r.URL.Query().Get(name); s != "" {
			u, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				server.WriteError(w, http.StatusBadRequest, "bad %s %q", name, s)
				return
			}
			*v = u
		}
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
	recs, end, ok, changed := c.hub.since(pos)
	// hello opens the stream, and restarts it from zero whenever pos is
	// not (or no longer) a prefix of the hub's records.
	hello := func() error {
		if !ok {
			pos = repPos{}
			recs, end, _, changed = c.hub.since(pos)
		}
		if err := enc.Encode(repFrame{Hello: true, Reset: !ok, Epoch: c.epoch, Total: end.n}); err != nil {
			return err
		}
		fl.Flush()
		c.hub.observeFollower(follower, pos.n)
		return nil
	}
	if hello() != nil {
		return
	}
	keepalive := c.cfg.LeaseTTL / 3
	for {
		for i, rec := range recs {
			f := repFrame{Index: pos.n + uint64(i) + 1, Kind: rec.Kind, Payload: rec.Payload}
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
			pos = end
			c.hub.observeFollower(follower, pos.n)
		} else {
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
		// A journal rewritten under this stream leaves pos naming records
		// that no longer exist: the stream restarts with a reset hello.
		if recs, end, ok, changed = c.hub.since(pos); !ok && hello() != nil {
			return
		}
	}
}

// StandbyConfig parameterizes a warm standby.
type StandbyConfig struct {
	// LeaderURL is the base URL of the coordinator to replicate.
	LeaderURL string
	// Coordinator is the configuration the standby promotes with, and
	// the one it replicates under: the shipped journal lands in its
	// JournalDir (required — a standby exists to hold a durable copy),
	// its Transport reaches the leader, its Clock and Log serve the
	// standby too, and a replication stream silent (no record, no
	// keepalive, no reconnect) for its LeaseTTL means the leader is dead.
	Coordinator Config
}

// Standby tails a leader's routing WAL into a local journal and
// promotes itself to a full Coordinator when the leader goes silent.
// Its Handler serves 503 (pointing at the leader) until promotion, then
// delegates to the promoted coordinator — so a standby can sit behind
// the same address before and after failover.
type Standby struct {
	cfg     StandbyConfig
	client  *http.Client
	clock   faultinject.Clock
	log     *slog.Logger
	metrics *obs.Registry

	dir string

	mu  sync.Mutex
	j   *checkpoint.Journal
	pos repPos // of the records j holds
	// resync, while non-nil, collects a leader journal that does not
	// extend j's records; it replaces them once it holds resyncTo records.
	resync      []checkpoint.Record
	resyncTo    uint64
	lastFrame   time.Time
	epoch       uint64 // last epoch seen from the leader
	leaderTotal uint64 // leader's record count, from hello/keepalive frames
	coord       *Coordinator

	promotedCh chan struct{}
}

// NewStandby opens (creating if needed) the standby's local journal.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	cfg.Coordinator = cfg.Coordinator.withDefaults()
	if cfg.Coordinator.JournalDir == "" {
		return nil, errors.New("cluster: standby requires Coordinator.JournalDir")
	}
	j, recs, err := checkpoint.Open(filepath.Join(cfg.Coordinator.JournalDir, "wal"), checkpoint.Options{})
	if err != nil {
		return nil, fmt.Errorf("cluster: opening standby journal: %w", err)
	}
	s := &Standby{
		cfg:        cfg,
		client:     &http.Client{Transport: cfg.Coordinator.Transport},
		clock:      cfg.Coordinator.Clock,
		log:        cfg.Coordinator.Log,
		metrics:    obs.NewRegistry(),
		j:          j,
		dir:        cfg.Coordinator.JournalDir,
		pos:        posAfter(recs),
		lastFrame:  cfg.Coordinator.Clock.Now(),
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
	if s.leaderTotal <= s.pos.n {
		return 0
	}
	return s.leaderTotal - s.pos.n
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
	return s.pos.n
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
// a lease TTL without any of them promotes.
func (s *Standby) Run(ctx context.Context) error {
	retry := core.RetryPolicy{MaxAttempts: 0, BaseDelay: 250 * time.Millisecond, MaxDelay: 2 * time.Second}
	attempt := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if s.silentFor() >= s.promoteAfter() {
			return s.promote()
		}
		err := s.tailOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		attempt++
		s.log.Warn("replication stream lost", "leader", s.cfg.LeaderURL, "err", err, "attempt", attempt)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.clock.After(retry.Backoff(attempt+1, hash64(s.cfg.LeaderURL))):
		}
	}
}

// promoteAfter is the promotion window: a leader whose replication
// stream has been silent for a lease is as dead as a worker that missed
// one.
func (s *Standby) promoteAfter() time.Duration { return s.cfg.Coordinator.LeaseTTL }

func (s *Standby) silentFor() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock.Now().Sub(s.lastFrame)
}

func (s *Standby) stampFrame(epoch, leaderTotal uint64) {
	s.mu.Lock()
	s.lastFrame = s.clock.Now()
	if epoch > s.epoch {
		s.epoch = epoch
	}
	if leaderTotal > s.leaderTotal {
		s.leaderTotal = leaderTotal
	}
	s.mu.Unlock()
}

// tailOnce opens one replication stream and consumes it until it breaks
// or the watchdog cancels it for silence; it returns why it ended.
func (s *Standby) tailOnce(ctx context.Context) error {
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Watchdog: a stream that stops delivering frames (half-open TCP
	// after a leader SIGKILL, a partition) must not hold tailOnce open
	// past the promotion window.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		tick := s.promoteAfter() / 4
		for {
			select {
			case <-watchdogDone:
				return
			case <-reqCtx.Done():
				return
			case <-s.clock.After(tick):
				if s.silentFor() >= s.promoteAfter() {
					cancel()
					return
				}
			}
		}
	}()

	s.mu.Lock()
	pos := s.pos
	s.mu.Unlock()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet,
		s.cfg.LeaderURL+"/cluster/v1/replicate?after="+strconv.FormatUint(pos.n, 10)+
			"&chain="+strconv.FormatUint(pos.chain, 10)+"&follower="+url.QueryEscape(s.followerID()), nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	// Close, never drain: the leader keeps the stream open for as long as
	// it lives, so draining a stream this side abandons (a bad frame, a
	// gap) would wait out the promotion window.
	defer resp.Body.Close() //nolint:errcheck
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
			if !first && !f.Reset {
				return errors.New("hello frame mid-stream")
			}
			if err := s.hello(f); err != nil {
				return err
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
	have := s.pos.n
	if s.resync != nil {
		have = uint64(len(s.resync))
	}
	if f.Index != have+1 {
		return fmt.Errorf("replication gap: got index %d, have %d records", f.Index, have)
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
	rec := checkpoint.Record{Kind: f.Kind, Payload: f.Payload}
	if s.resync != nil {
		s.resync = append(s.resync, rec)
		return s.adoptLocked()
	}
	if err := s.j.Append(rec.Kind, rec.Payload); err != nil {
		return err
	}
	s.pos = s.pos.next(rec)
	return nil
}

// hello takes a hello frame's total as the leader's and, on a reset,
// starts collecting the leader's journal to replace the local one.
func (s *Standby) hello(f repFrame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.leaderTotal, s.resync = f.Total, nil
	if !f.Reset {
		return nil
	}
	s.log.Warn("leader journal does not extend the local copy; resyncing",
		"leader_total", f.Total, "local", s.pos.n)
	s.resync, s.resyncTo = []checkpoint.Record{}, f.Total
	return s.adoptLocked()
}

// adoptLocked swaps the collected leader journal in once it holds every
// record the reset announced. Until then the local journal stays whole,
// so a leader lost mid-resync leaves a standby that promotes on its older
// copy rather than on nothing. Compact publishes the new records
// atomically; a crash before it removes the old ones leaves a journal
// that foldRouting reads from the new header on, and whose position
// matches no leader prefix, so the next hello resets again. Requires
// s.mu.
func (s *Standby) adoptLocked() error {
	if uint64(len(s.resync)) < s.resyncTo {
		return nil
	}
	if err := s.j.Compact(s.resync); err != nil {
		return fmt.Errorf("adopting the leader's journal: %w", err)
	}
	s.pos, s.resync = posAfter(s.resync), nil
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
	records, lastEpoch := s.pos.n, s.epoch
	s.mu.Unlock()

	coord, err := New(s.cfg.Coordinator)
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
