package core

import (
	"fmt"
	"sort"
	"sync"

	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
)

// This file is the solver-portfolio seam: Options.Engine names a solver,
// and Run dispatches non-FFMR names through a registry that alternative
// engines (internal/prflow's synchronous parallel push-relabel,
// internal/portfolio's probing auto driver) populate from their package
// init functions. core itself never imports an engine package — the
// dependency points the other way — so the registry is how a solver
// plugs into every existing entry point (cmd/ffmr, the service, dynamic
// snapshots) without core knowing it exists.

// EngineFunc is an alternative solver with the same contract as Run: it
// computes the maximum flow of in on the given cluster, returns its flow
// vector as Result.Flows and leaves the final residual state persisted
// in the cluster's DFS exactly as the FFMR driver would (see
// WriteEngineState). opts arrives with defaults applied and validated.
type EngineFunc func(cluster *mapreduce.Cluster, in *graph.Input, opts Options) (*Result, error)

var (
	engineMu sync.RWMutex
	engines  = map[string]EngineFunc{}
)

// RegisterEngine makes fn available as Options.Engine = name. The names
// "" and "ffmr" are reserved for the built-in driver. Registering a name
// twice panics: engines register from init functions, so a duplicate is
// a programming error, not a runtime condition.
func RegisterEngine(name string, fn EngineFunc) {
	if name == "" || name == "ffmr" {
		panic(fmt.Sprintf("core: engine name %q is reserved", name))
	}
	if fn == nil {
		panic("core: RegisterEngine with nil EngineFunc")
	}
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, dup := engines[name]; dup {
		panic(fmt.Sprintf("core: engine %q registered twice", name))
	}
	engines[name] = fn
}

// EngineNames returns the registered engine names plus the built-in
// "ffmr", sorted — the values Options.Engine accepts in this process.
func EngineNames() []string {
	engineMu.RLock()
	names := make([]string, 0, len(engines)+1)
	for n := range engines {
		names = append(names, n)
	}
	engineMu.RUnlock()
	names = append(names, "ffmr")
	sort.Strings(names)
	return names
}

func lookupEngine(name string) EngineFunc {
	engineMu.RLock()
	defer engineMu.RUnlock()
	return engines[name]
}

// dispatchEngine routes Run to a registered engine when Options.Engine
// names one. The bool reports whether the call was handled.
func dispatchEngine(cluster *mapreduce.Cluster, in *graph.Input, opts Options) (*Result, bool, error) {
	if opts.Engine == "" || opts.Engine == "ffmr" {
		return nil, false, nil
	}
	fn := lookupEngine(opts.Engine)
	if fn == nil {
		return nil, true, fmt.Errorf("core: unknown engine %q (registered: %v; import ffmr/internal/portfolio to register prflow and auto)",
			opts.Engine, EngineNames())
	}
	res, err := fn(cluster, in, opts)
	return res, true, err
}
