package client

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxCryptoWorkers bounds the worker pool for per-variant table crypto
// and stat-ahead verification. Variant counts are small (a handful under
// Scheme-2, users+groups under Scheme-1) and a stat-ahead batch is at most
// statAheadWindow entries, so a low cap avoids goroutine churn without
// limiting speedup.
const maxCryptoWorkers = 8

// runParallel executes fn(0..n-1) across a bounded worker pool. Variants
// of a directory table, like the entries of a stat-ahead batch, are
// independent, so opening/sealing them is embarrassingly parallel; fn
// must only touch index-i state and goroutine-safe shared state.
func runParallel(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers > maxCryptoWorkers {
		workers = maxCryptoWorkers
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
