package ssp

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestConcurrentMixedOps hammers one server with every request type from
// many clients at once, over deliberately overlapping keys: contention on
// the store and the per-connection codecs is the point. Run under -race
// (make race / CI) to make it a data-race detector, not just a smoke test.
func TestConcurrentMixedOps(t *testing.T) {
	store := NewMemStore()
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(store, nil)
	go srv.Serve(l)
	defer srv.Close()

	const (
		workers = 8
		rounds  = 60
		shared  = 16 // keys every worker fights over
	)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(l.Dial, nil)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("shared/k%d", (w+i)%shared)
				switch i % 6 {
				case 0:
					if err := c.Put(wire.NSData, key, []byte(key)); err != nil {
						errs <- fmt.Errorf("put: %w", err)
						return
					}
				case 1:
					got, err := c.Get(wire.NSData, key)
					if err == nil && string(got) != key {
						errs <- fmt.Errorf("get %s returned %q", key, got)
						return
					}
				case 2:
					if err := c.Delete(wire.NSData, key); err != nil {
						errs <- fmt.Errorf("delete: %w", err)
						return
					}
				case 3:
					if _, err := c.List(wire.NSData, "shared/"); err != nil {
						errs <- fmt.Errorf("list: %w", err)
						return
					}
				case 4:
					batch := []wire.KV{
						{NS: wire.NSData, Key: key, Val: []byte(key)},
						{NS: wire.NSMeta, Key: key, Val: []byte("m")},
					}
					if err := c.BatchPut(batch); err != nil {
						errs <- fmt.Errorf("batchput: %w", err)
						return
					}
				default:
					if _, err := c.Stats(); err != nil {
						errs <- fmt.Errorf("stats: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPackSubRequestsShareBuffer pipelines many small Gets over one
// connection so requests arrive as pack frames. Every sub-request
// borrows the pack's pooled buffer; the server must keep that buffer
// alive until the last sub-request is dispatched, or a later sub-request
// decodes from memory already recycled for the next frame (a data race
// under -race, wrong values or a "Buf over-released" panic without it).
// The early release needs a dispatch to finish inside a short window, so
// the burst repeats for several rounds to make a miss unlikely.
func TestPackSubRequestsShareBuffer(t *testing.T) {
	store := NewMemStore()
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(store, nil)
	go srv.Serve(l)
	defer srv.Close()

	const (
		rounds  = 16
		workers = 32
		gets    = 300
	)
	value := func(w, i int) []byte {
		v := make([]byte, 100)
		for j := range v {
			v[j] = byte(w*31 + i*7 + j)
		}
		copy(v, fmt.Sprintf("%d/%d/", w, i))
		return v
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < gets; i++ {
			if err := store.Put(wire.NSData, fmt.Sprintf("v/%d/%d", w, i), value(w, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := Dial(l.Dial, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for round := 0; round < rounds && !t.Failed(); round++ {
		getAll(t, c, workers, gets, value)
	}
}

func getAll(t *testing.T, c *Client, workers, gets int, value func(w, i int) []byte) {
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < gets; i++ {
				got, err := c.Get(wire.NSData, fmt.Sprintf("v/%d/%d", w, i))
				if err != nil {
					errs <- fmt.Errorf("worker %d get %d: %w", w, i, err)
					return
				}
				if !bytes.Equal(got, value(w, i)) {
					errs <- fmt.Errorf("worker %d get %d: wrong value %q", w, i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
