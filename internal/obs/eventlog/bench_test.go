package eventlog

import (
	"io"
	"log/slog"
	"testing"
)

// BenchmarkEventLogDisabled holds the package's disabled-path contract:
// with no destination installed, the On() guard is one atomic pointer
// load, 0 allocs — attribute construction never happens. This is the
// pattern hot paths must use (a bare Emit with attrs would heap-escape
// the variadic slice even when disabled).
func BenchmarkEventLogDisabled(b *testing.B) {
	prev := Set(nil)
	defer Set(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if On() {
			Emit("bench.event", slog.Int("i", i))
		}
	}
}

func BenchmarkEventLogEnabled(b *testing.B) {
	prev := Set(slog.New(slog.NewJSONHandler(io.Discard, nil)))
	defer Set(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if On() {
			Emit("bench.event", slog.Int("i", i))
		}
	}
}
