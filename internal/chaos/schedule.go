package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// EventKind names one chaos injection.
type EventKind string

const (
	// CrashWorker kills a worker abruptly — no goodbye, its winning map
	// output is lost unless it was persisted or handed off.
	CrashWorker EventKind = "crash-worker"
	// DrainWorker retires a worker gracefully: running attempts finish
	// and its winning map output hands off through the DFS.
	DrainWorker EventKind = "drain-worker"
	// JoinWorker adds a fresh worker mid-run.
	JoinWorker EventKind = "join-worker"
	// SlowWorker injects per-task latency on a worker for a while,
	// making it a straggler the scheduler must wait out.
	SlowWorker EventKind = "slow-worker"
	// PartitionWorker blackholes traffic toward a worker for a while:
	// leases to it error, shuffle fetches from it report lost maps.
	PartitionWorker EventKind = "partition-worker"
	// RestartMaster crashes the master and boots a new generation on the
	// same address, recovering scheduler state from the DFS.
	RestartMaster EventKind = "restart-master"
)

// AllKinds lists every event kind, in a fixed order.
func AllKinds() []EventKind {
	return []EventKind{CrashWorker, DrainWorker, JoinWorker, SlowWorker, PartitionWorker, RestartMaster}
}

// Event is one scheduled injection. At is the offset from run start.
// Slot picks the victim deterministically: index modulo the live-worker
// pool at fire time. Delay is SlowWorker's injected per-task latency;
// For is how long a slowdown or partition lasts before it heals.
type Event struct {
	At    time.Duration
	Kind  EventKind
	Slot  int
	Delay time.Duration
	For   time.Duration
}

// String renders the event exactly as the runner logs it, so a schedule
// print and an applied-event log line up one to one.
func (e Event) String() string {
	s := fmt.Sprintf("%s %s slot=%d", e.At, e.Kind, e.Slot)
	if e.Kind == SlowWorker {
		s += fmt.Sprintf(" delay=%s", e.Delay)
	}
	if e.For > 0 && (e.Kind == SlowWorker || e.Kind == PartitionWorker) {
		s += fmt.Sprintf(" for=%s", e.For)
	}
	return s
}

// Schedule is a reproducible chaos scenario: the seed that generated it
// plus the events in firing order. Two runs of the same (Seed, Schedule)
// produce identical applied-event logs.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Profile bounds schedule generation.
type Profile struct {
	// Events is how many events to draw (default 6).
	Events int
	// Horizon is the window events are drawn in, [0, Horizon)
	// (default 2s).
	Horizon time.Duration
	// Kinds restricts the event kinds drawn (default AllKinds).
	Kinds []EventKind
	// MaxSlot bounds the victim slot draw (default 8). Slots wrap modulo
	// the live pool at fire time, so this only shapes the distribution.
	MaxSlot int
	// MaxDelay bounds SlowWorker latency (default 50ms); MaxFor bounds
	// slowdown/partition durations (default 300ms).
	MaxDelay time.Duration
	MaxFor   time.Duration
}

func (p *Profile) applyDefaults() {
	if p.Events <= 0 {
		p.Events = 6
	}
	if p.Horizon <= 0 {
		p.Horizon = 2 * time.Second
	}
	if len(p.Kinds) == 0 {
		p.Kinds = AllKinds()
	}
	if p.MaxSlot <= 0 {
		p.MaxSlot = 8
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	if p.MaxFor <= 0 {
		p.MaxFor = 300 * time.Millisecond
	}
}

// Generate draws a schedule from the seed: the same (seed, profile)
// always yields the same schedule, which is the root of chaos-run
// reproducibility.
func Generate(seed int64, p Profile) Schedule {
	p.applyDefaults()
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, p.Events)
	for i := range events {
		e := Event{
			At:   time.Duration(rng.Int63n(int64(p.Horizon))),
			Kind: p.Kinds[rng.Intn(len(p.Kinds))],
			Slot: rng.Intn(p.MaxSlot),
		}
		switch e.Kind {
		case SlowWorker:
			e.Delay = time.Duration(rng.Int63n(int64(p.MaxDelay))) + time.Millisecond
			e.For = time.Duration(rng.Int63n(int64(p.MaxFor))) + time.Millisecond
		case PartitionWorker:
			e.For = time.Duration(rng.Int63n(int64(p.MaxFor))) + time.Millisecond
		}
		events[i] = e
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return Schedule{Seed: seed, Events: events}
}
