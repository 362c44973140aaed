package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eurosys26p57/chimera/internal/service"
)

// closedLoop runs n clients for d. Each client sends its next operation only
// after the previous one returned; op(client, seq) performs operation seq,
// a sequence number unique across clients and dense from first. Operations
// in flight at the deadline complete. It returns the wall time from start
// until the last client finished and the number of operations run.
func closedLoop(n int, first int, d time.Duration, op func(client, seq int)) (time.Duration, int) {
	return runClients(n, first, math.MaxInt, time.Now().Add(d), op)
}

// closedBatch runs operations first … first+count-1 with n clients in a
// closed loop, as closedLoop does, and returns the wall time they took.
func closedBatch(n int, first, count int, op func(client, seq int)) time.Duration {
	elapsed, _ := runClients(n, first, first+count, time.Time{}, op)
	return elapsed
}

// runClients runs n clients, each taking the next sequence number below end
// while the deadline (none if zero) has not passed.
func runClients(n int, first, end int, deadline time.Time, op func(client, seq int)) (time.Duration, int) {
	var next, ran atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for deadline.IsZero() || time.Now().Before(deadline) {
				seq := int(next.Add(1) - 1)
				if seq >= end {
					return
				}
				op(c, seq)
				ran.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), int(ran.Load())
}

// shutdown drains a server, bounded so a wedged pool cannot hang the run.
func shutdown(srv *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // a drain timeout leaves nothing to report
}

// failures counts failed operations and keeps the first few reasons.
type failures struct {
	n     int
	first []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.first) < 3 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

func (f *failures) merge(o failures) {
	f.n += o.n
	for _, s := range o.first {
		if len(f.first) < 3 {
			f.first = append(f.first, s)
		}
	}
}
