package obs

import (
	"context"
	"time"
)

// StageEvent is one completed solver phase: the DP table build, an
// annealing sweep, a Monte-Carlo replication batch, a parallel shard
// fan-out. Units counts the phase's work items (restarts, replications,
// table cells) when meaningful, 0 otherwise.
type StageEvent struct {
	Name     string
	Duration time.Duration
	Units    int64
	Attrs    map[string]string
}

// StageObserver receives stage events. Implementations must be safe for
// concurrent use: parallel solver shards report concurrently.
type StageObserver func(StageEvent)

// WithStageObserver returns a context that delivers solver stage events
// to fn, keeping ctx's trace and current span. A nil fn returns ctx
// unchanged.
func WithStageObserver(ctx context.Context, fn StageObserver) context.Context {
	if fn == nil {
		return ctx
	}
	sc := scopeFrom(ctx)
	sc.observer = fn
	return withScope(ctx, sc)
}

// Active reports whether ctx carries a stage observer or an active
// trace — i.e. whether Stage(ctx, ...) would record anything. Hot paths
// use it to skip per-worker measurement entirely when nobody is
// watching, so instrumentation costs nothing on unobserved runs.
func Active(ctx context.Context) bool {
	return scopeFrom(ctx).active()
}

// Stage reports a completed solver phase that started at start and ends
// now: it invokes the context's stage observer (if any) and records a
// child span on the context's trace (if any). Solvers call this
// unconditionally — with neither installed it costs one context lookup
// and nothing else, and it never affects solver results.
func Stage(ctx context.Context, name string, start time.Time, units int64, attrs map[string]string) {
	sc := scopeFrom(ctx)
	if !sc.active() {
		return
	}
	end := time.Now()
	if sc.observer != nil {
		sc.observer(StageEvent{Name: name, Duration: end.Sub(start), Units: units, Attrs: attrs})
	}
	recordSpan(sc, name, start, end, attrs)
}
