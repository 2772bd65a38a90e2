package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGet(t *testing.T) {
	c := New(1000)
	c.Put("a", "va", 10)
	if v, ok := c.Get("a"); !ok || v != "va" {
		t.Errorf("get = %v, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Error("missing key hit")
	}
	if c.Len() != 1 || c.Used() != 10 {
		t.Errorf("len=%d used=%d", c.Len(), c.Used())
	}
}

func TestReplaceAdjustsSize(t *testing.T) {
	c := New(1000)
	c.Put("a", "v1", 10)
	c.Put("a", "v2", 30)
	if c.Used() != 30 || c.Len() != 1 {
		t.Errorf("used=%d len=%d", c.Used(), c.Len())
	}
	if v, _ := c.Get("a"); v != "v2" {
		t.Errorf("v = %v", v)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	c := New(30)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Put("c", 3, 10)
	c.Get("a") // a is now most recent; b is oldest
	c.Put("d", 4, 10)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(100)
	c.Put("big", 1, 200)
	if _, ok := c.Get("big"); ok {
		t.Error("oversized value cached")
	}
	if c.Used() != 0 {
		t.Errorf("used = %d", c.Used())
	}
}

// TestOversizedReplaceDropsStale: replacing a cached value with one too
// large to cache leaves the key uncached, not holding the old value.
func TestOversizedReplaceDropsStale(t *testing.T) {
	c := New(100)
	c.Put("a", "old", 10)
	c.Put("b", "kept", 10)
	c.Put("a", "new", 200)
	if v, ok := c.Get("a"); ok {
		t.Errorf("after an oversized replace, a = %v; want a miss", v)
	}
	if c.Used() != 10 || c.Len() != 1 {
		t.Errorf("used=%d len=%d; want 10 and 1", c.Used(), c.Len())
	}
}

func TestZeroBudgetDisables(t *testing.T) {
	c := New(0)
	c.Put("a", 1, 1)
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
}

func TestUnlimitedBudget(t *testing.T) {
	c := New(-1)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 1<<20)
	}
	if c.Len() != 1000 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestDeleteAndPrefix(t *testing.T) {
	c := New(-1)
	c.Put("f/1/0/0", 1, 10)
	c.Put("f/1/0/1", 2, 10)
	c.Put("f/2/0/0", 3, 10)
	c.Delete("f/1/0/0")
	if _, ok := c.Get("f/1/0/0"); ok {
		t.Error("deleted key hit")
	}
	c.Delete("nonexistent") // no-op
	c.DeletePrefix("f/1/")
	if _, ok := c.Get("f/1/0/1"); ok {
		t.Error("prefix delete missed")
	}
	if _, ok := c.Get("f/2/0/0"); !ok {
		t.Error("prefix delete over-deleted")
	}
	if c.Used() != 10 {
		t.Errorf("used = %d", c.Used())
	}
}

func TestClear(t *testing.T) {
	c := New(-1)
	c.Put("a", 1, 10)
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 {
		t.Error("clear incomplete")
	}
	if _, ok := c.Get("a"); ok {
		t.Error("entry survived clear")
	}
}

func TestStats(t *testing.T) {
	c := New(-1)
	c.Put("a", 1, 1)
	c.Get("a")
	c.Get("a")
	c.Get("b")
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(10000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%50)
				c.Put(key, i, 10)
				c.Get(key)
				if i%100 == 0 {
					c.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
	// Invariant: used never exceeds budget.
	if c.Used() > 10000 {
		t.Errorf("used %d exceeds budget", c.Used())
	}
}

func TestEvictionNeverExceedsBudget(t *testing.T) {
	c := New(100)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, int64(i%40))
		if c.Used() > 100 {
			t.Fatalf("budget exceeded: %d", c.Used())
		}
	}
}

// TestHasIsAProbe: Has and Peek neither count a hit or miss nor refresh
// recency.
func TestHasIsAProbe(t *testing.T) {
	c := New(20)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	if !c.Has("a") || c.Has("missing") {
		t.Fatal("Has disagrees with the contents")
	}
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %v, %v", v, ok)
	}
	if _, ok := c.Peek("missing"); ok {
		t.Fatal("Peek found a missing key")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("Has counted: hits=%d misses=%d", hits, misses)
	}
	c.Put("c", 3, 10) // a is still the oldest: Has did not refresh it
	if c.Has("a") || !c.Has("b") {
		t.Error("Has or Peek refreshed recency")
	}
	if !c.Enabled() || New(0).Enabled() || !New(-1).Enabled() {
		t.Error("Enabled does not match the budget")
	}
}
