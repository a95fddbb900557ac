package dispatch

// The acquire → release handoff, whose numbers are in the dispatch
// tables of docs/PERFORMANCE.md.
//
//	go test -bench Dispatcher -benchtime 2s ./internal/dispatch

import (
	"context"
	"sync/atomic"
	"testing"
)

// BenchmarkDispatcherCycle runs one acquire→release cycle per
// iteration across parallel producers against a single execution
// slot — the contended path of the service under a submission storm.
func BenchmarkDispatcherCycle(b *testing.B) {
	d := NewDispatcher(1)
	ctx := context.Background()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := d.Acquire(ctx, 0, seq.Add(1)); err != nil {
				b.Error(err)
				return
			}
			d.Release()
		}
	})
}
