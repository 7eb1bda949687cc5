// Package faultinject provides deterministic fault injection for the
// pipeline's stage boundaries. An Injector matches rules against the
// (stage, shard) visits reported through core.Config.FaultHook and
// fires an action — panic, delay, or forced cancellation — on a chosen
// visit. Because rules fire on exact visit counts (or on a single
// seed-derived visit, see Seeded), failures are reproducible, which is
// what makes testing every recovery path under -race practical.
//
// The hooks it drives are compiled into internal/core but nil by
// default: production callers pay nothing.
package faultinject

import (
	"fmt"
	"sync"
	"time"
)

// Action is what a rule does when it fires.
type Action int

const (
	// Panic panics with Rule.Msg (or a descriptive default), modelling
	// a crashed worker.
	Panic Action = iota
	// Delay sleeps for Rule.Delay, modelling a stalled shard.
	Delay
	// Cancel calls Rule.Cancel (typically a context.CancelFunc),
	// modelling an external abort landing at an exact pipeline point.
	Cancel
)

func (a Action) String() string {
	switch a {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Cancel:
		return "cancel"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Rule selects the visits an action fires on. Zero-valued matchers are
// wildcards: an empty Stage matches every stage and Shard -1 matches
// every shard.
type Rule struct {
	// Stage matches the visit's stage name (core.StageSeeding,
	// core.StageFilter, core.StageExtension); "" matches all.
	Stage string
	// Shard matches the visit's shard index; -1 matches all.
	Shard int
	// Hit fires on the Nth matching visit (1-based); 0 fires on every
	// matching visit.
	Hit int
	// Action is what to do when the rule fires.
	Action Action
	// Delay is the sleep duration for the Delay action.
	Delay time.Duration
	// Cancel is called by the Cancel action.
	Cancel func()
	// Msg is the panic payload for the Panic action ("" selects a
	// descriptive default).
	Msg string
}

// Event records one fired rule, for test assertions.
type Event struct {
	Stage  string
	Shard  int
	Action Action
}

// Injector is a set of rules plus their visit counters. Its Hook method
// plugs into core.Config.FaultHook; it is safe for concurrent use by
// the pipeline's worker goroutines.
type Injector struct {
	mu    sync.Mutex
	rules []Rule
	seen  []int
	fired []Event
}

// New builds an injector from rules. Rules are tried in order; the
// first match fires at most one action per visit.
func New(rules ...Rule) *Injector {
	return &Injector{rules: rules, seen: make([]int, len(rules))}
}

// Seeded builds a single-rule injector whose action fires on exactly
// one visit of the given stage — the visit number is derived
// deterministically from seed in [1, horizon]. Sweeping seeds places
// the same fault at different pipeline points, fuzzing the recovery
// paths without losing reproducibility.
func Seeded(seed int64, stage string, horizon int, rule Rule) *Injector {
	if horizon < 1 {
		horizon = 1
	}
	rule.Stage = stage
	rule.Shard = -1
	rule.Hit = int(SplitMix64(uint64(seed))%uint64(horizon)) + 1
	return New(rule)
}

// Hook returns the function to install as core.Config.FaultHook.
func (in *Injector) Hook() func(stage string, shard int) { return in.visit }

func (in *Injector) visit(stage string, shard int) {
	var act *Rule
	in.mu.Lock()
	for i := range in.rules {
		r := &in.rules[i]
		if r.Stage != "" && r.Stage != stage {
			continue
		}
		if r.Shard >= 0 && r.Shard != shard {
			continue
		}
		in.seen[i]++
		if r.Hit == 0 || in.seen[i] == r.Hit {
			in.fired = append(in.fired, Event{Stage: stage, Shard: shard, Action: r.Action})
			act = r
			break
		}
	}
	in.mu.Unlock()
	if act == nil {
		return
	}
	switch act.Action {
	case Delay:
		time.Sleep(act.Delay)
	case Cancel:
		if act.Cancel != nil {
			act.Cancel()
		}
	case Panic:
		msg := act.Msg
		if msg == "" {
			msg = fmt.Sprintf("faultinject: injected panic at %s shard %d", stage, shard)
		}
		panic(msg)
	}
}

// Fired returns a copy of the events fired so far.
func (in *Injector) Fired() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.fired...)
}

// FiredCount returns the number of fired events.
func (in *Injector) FiredCount() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.fired)
}

// SplitMix64 is the finalizer of Vigna's SplitMix64, a tiny, stable
// mixing function used instead of math/rand so seeded placement (fault
// hits here, retry jitter in internal/core) never shifts between Go
// releases.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
