// Package eventlog is the repository's structured event log: a gated
// log/slog front-end that replaces ad-hoc fmt.Fprintf(os.Stderr, ...)
// call sites with named, attribute-carrying events, and counts every
// emission in the obs registry ("event.<name>" counters) so the
// deterministic half of the log — how many times each event fired — is
// part of the normalized telemetry snapshot while the wall-clock half
// (timestamps, attribute values like addresses and durations) stays on
// the log stream only.
//
// Disabled (no logger installed — the default) the package follows the
// obs Counter discipline: Emit is one atomic pointer load and returns.
// Hot paths that build attributes guard with On() so the attribute
// construction itself is skipped:
//
//	if eventlog.On() {
//		eventlog.Emit("fleet.cell.done", slog.String("cell", key))
//	}
//
// BenchmarkEventLogDisabled holds that pattern to 0 allocs and ~1 ns.
//
// Event names are dot-separated lowercase paths like metric names
// ("fleet.admit", "watchdog.state", "bistd.listening"); the name is the
// slog message, attributes carry the payload. Correlation attributes
// (campaign ID, shard, cell key, unit range) are plain attrs the caller
// threads through — see internal/fleet for the convention.
package eventlog

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// active is the installed destination; nil means disabled. An atomic
// pointer (not a mutex) keeps the disabled path to one load.
var active atomic.Pointer[slog.Logger]

// counters interns the per-event obs counters so Emit does not take the
// registry mutex on every emission.
var counters sync.Map // event name → *obs.Counter

// Set installs the destination logger (nil disables the package) and
// returns the previous one, making save/restore in tests a one-liner.
func Set(l *slog.Logger) *slog.Logger {
	return active.Swap(l)
}

// On reports whether a destination is installed. Guard attribute
// construction with it on hot paths.
func On() bool { return active.Load() != nil }

// Emit logs one event and counts it in the obs registry. Returns false
// (and does nothing) when no destination is installed, so fallback paths
// — a panic report that must reach a human even on an unconfigured
// binary — can chain on the result.
func Emit(name string, attrs ...slog.Attr) bool {
	l := active.Load()
	if l == nil {
		return false
	}
	count(name)
	l.LogAttrs(context.Background(), slog.LevelInfo, name, attrs...)
	return true
}

// count bumps the event.<name> counter (interned on first use).
func count(name string) {
	if c, ok := counters.Load(name); ok {
		c.(*obs.Counter).Inc()
		return
	}
	c := obs.C("event." + name)
	counters.Store(name, c)
	c.Inc()
}
