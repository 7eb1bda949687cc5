package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Shard-targeted fault injection. The scatter/gather dispatch plane
// retries individual work units across workers, which means its failure
// handling is keyed on *which shard* failed, not which request. These
// rules let a test (or a subprocess e2e, via ParseShardFaults on an
// environment variable) fail exactly the work units it names — on every
// worker, on a specific strand, or only the first N attempts — so retry
// exhaustion and partial-result degradation fire on cue.

// ErrInjectedShard is the cause of every fault injected by shard rules.
var ErrInjectedShard = errors.New("faultinject: shard unit fault (injected)")

// ShardRule selects the shard work units a fault fires on. Zero-valued
// matchers are wildcards, mirroring IORule.
type ShardRule struct {
	// Seq matches the work unit's sequence number; -1 matches every
	// unit.
	Seq int
	// Strand matches the unit's strand ('+' or '-'); 0 matches both.
	Strand byte
	// Hit fires on the Nth matching check (1-based, counted per rule);
	// 0 fires on every match — the shape retry-exhaustion tests need,
	// since the unit must fail on every worker it lands on.
	Hit int
}

// ShardFaults matches ShardRules against shard work-unit executions.
// A nil *ShardFaults is valid and injects nothing, so serving code can
// thread it unconditionally.
type ShardFaults struct {
	mu    sync.Mutex
	rules []ShardRule
	seen  []int
}

// NewShard builds a shard fault set from rules. Rules are tried in
// order; the first match fires at most once per check.
func NewShard(rules ...ShardRule) *ShardFaults {
	return &ShardFaults{rules: rules, seen: make([]int, len(rules))}
}

// Check reports the injected error for one execution of the (seq,
// strand) work unit, or nil when no rule fires. A nil receiver is a
// no-op.
func (f *ShardFaults) Check(seq int, strand byte) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.rules {
		r := &f.rules[i]
		if r.Seq >= 0 && r.Seq != seq {
			continue
		}
		if r.Strand != 0 && r.Strand != strand {
			continue
		}
		f.seen[i]++
		if r.Hit == 0 || f.seen[i] == r.Hit {
			return fmt.Errorf("unit %d/%c: %w", seq, strand, ErrInjectedShard)
		}
	}
	return nil
}

// ParseShardFaults builds a fault set from a compact spec, the form a
// subprocess test passes through an environment variable. The spec is
// comma-separated rules of the form seq[:strand[:hit]] with "*" as the
// wildcard: "2" fails unit 2 always, "*:-" fails every '-' unit,
// "3:+:1" fails the first attempt of unit 3/+. An empty spec returns
// nil (no faults).
func ParseShardFaults(spec string) (*ShardFaults, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []ShardRule
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) > 3 {
			return nil, fmt.Errorf("faultinject: shard rule %q has more than seq:strand:hit", part)
		}
		r := ShardRule{Seq: -1}
		if fields[0] != "*" && fields[0] != "" {
			n, err := strconv.Atoi(fields[0])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: shard rule %q: bad seq %q", part, fields[0])
			}
			r.Seq = n
		}
		if len(fields) > 1 && fields[1] != "*" && fields[1] != "" {
			if fields[1] != "+" && fields[1] != "-" {
				return nil, fmt.Errorf("faultinject: shard rule %q: strand must be + or -", part)
			}
			r.Strand = fields[1][0]
		}
		if len(fields) > 2 && fields[2] != "*" && fields[2] != "" {
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: shard rule %q: bad hit %q", part, fields[2])
			}
			r.Hit = n
		}
		rules = append(rules, r)
	}
	return NewShard(rules...), nil
}
