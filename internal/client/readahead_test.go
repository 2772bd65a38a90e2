package client

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// content returns the distinct content of file i of a populated
// directory: two to four full 64-byte blocks, so a BatchGet's key count
// gives the bytes it fetched.
func content(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i)}, 64*(2+i%3))
}

// populateData makes dir with n files f0..f<n-1> holding content(i),
// with the given modes cycled.
func populateData(t *testing.T, s *Session, dir string, n int, modes ...types.Perm) {
	t.Helper()
	if err := s.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.WriteFile(fmt.Sprintf("%s/f%d", dir, i), content(i), modes[i%len(modes)]); err != nil {
			t.Fatal(err)
		}
	}
}

// blockKeyOf returns the store key of block i of the file s resolves
// path to.
func blockKeyOf(t *testing.T, s *Session, path string, i uint32) string {
	t.Helper()
	r, m, err := s.resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	return meta.BlockKey(r.ino, m.Attr.DataGen, i)
}

// listAndStat lists dir and stats every entry, as ls -l does; it returns
// the names.
func listAndStat(t *testing.T, s *Session, dir string) []string {
	t.Helper()
	names, err := s.ReadDir(dir)
	if err != nil {
		t.Fatalf("ls %s: %v", dir, err)
	}
	for _, name := range names {
		if _, err := s.Stat(dir + "/" + name); err != nil {
			t.Fatalf("stat %s/%s: %v", dir, name, err)
		}
	}
	return names
}

// TestReadAheadIntegrity: blocks a read-ahead batch fetches for siblings
// pass the same verification as a file's own read. A tampered block, or a
// block another file's blob is served for, fails only its own file's
// read, with ErrTampered, and is not cached; every other file reads
// right from the one batch.
func TestReadAheadIntegrity(t *testing.T) {
	const n = 6
	cases := []struct {
		name string
		rule func(t *testing.T, s *Session) ssp.FaultRule
	}{
		{"block-tamper", func(t *testing.T, s *Session) ssp.FaultRule {
			return ssp.FaultRule{Mode: ssp.FaultTamper, NS: wire.NSData, KeyPart: blockKeyOf(t, s, "/d/f3", 1)}
		}},
		{"block-swap", func(t *testing.T, s *Session) ssp.FaultRule {
			return ssp.FaultRule{Mode: ssp.FaultSwap, NS: wire.NSData,
				KeyPart: blockKeyOf(t, s, "/d/f3", 1), SwapKey: blockKeyOf(t, s, "/d/f5", 1)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fixture(t)
			fs := ssp.NewFaultStore(ssp.NewMemStore())
			ps := &probeStore{BlobStore: fs}
			w := newWorld(t, layout.NewScheme2(fixReg), ps)
			populateData(t, w.as("alice"), "/d", n, 0o644)

			s := w.mountFresh("alice", -1)
			defer s.Close()
			names := listAndStat(t, s, "/d")
			fs.AddRule(tc.rule(t, s))

			// f0 carries the batch; the others (f3 aside) come from it.
			for i, name := range names {
				before, _ := ps.snapshot()
				got, err := s.ReadFile("/d/" + name)
				after, _ := ps.snapshot()
				if name == "f3" {
					if !errors.Is(err, types.ErrTampered) {
						t.Fatalf("read of the faulted f3: %d B, %v; want ErrTampered", len(got), err)
					}
					continue
				}
				if err != nil || !bytes.Equal(got, content(i)) {
					t.Errorf("read %s = %d B, %v; want %d B", name, len(got), err, len(content(i)))
				}
				if i > 0 && after != before {
					t.Errorf("read %s made %d store calls; want 0 after the batch", name, after-before)
				}
			}

			// Nothing unverified was cached: f3 goes back to the store.
			before, _ := ps.snapshot()
			_, _ = s.ReadFile("/d/f3") // its result was checked above; only its store calls count here
			if after, _ := ps.snapshot(); after == before {
				t.Error("second read of f3 was served from the cache")
			}
		})
	}
}

// TestReadAheadSkipsRevokedAndSplit: a listed file the reader's variant
// cannot read, and a split-point row, are left out of the batch. bob (in
// eng) reads /proj, where f1 is 0600; carol (in qa) reads /proj, where m
// is alice:qa and so a split point in carol's listing.
func TestReadAheadSkipsRevokedAndSplit(t *testing.T) {
	w, ps := probeWorld(t)
	alice := w.as("alice")
	populateData(t, alice, "/proj", 3, 0o644, 0o600)
	if err := alice.WriteFile("/proj/m", content(4), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := alice.Chown("/proj/m", "alice", "qa"); err != nil {
		t.Fatal(err)
	}
	blocks := func(i int) int { return (len(content(i)) + 63) / 64 }

	for _, tc := range []struct {
		user    types.UserID
		skipped string // the entry the batch leaves out
		// batch: the keys of the first read's BatchGet.
		batch int
	}{
		// f0 reads f0, f2 and m, not f1.
		{"bob", "f1", blocks(0) + blocks(2) + blocks(4)},
		// f0 reads f0 and f2: carol is other, who may not read the 0600
		// f1, and m is a split point.
		{"carol", "m", blocks(0) + blocks(2)},
	} {
		t.Run(string(tc.user), func(t *testing.T) {
			s := w.mountFresh(tc.user, -1)
			defer s.Close()
			names := listAndStat(t, s, "/proj")
			if tc.user == "carol" {
				split := false
				for _, e := range s.listing.rows {
					split = split || (e.Name == "m" && e.Split)
				}
				if !split {
					t.Fatal("m is not a split point in carol's listing; the test does not exercise the split path")
				}
			}
			_, before := ps.snapshot()
			if got, err := s.ReadFile("/proj/f0"); err != nil || !bytes.Equal(got, content(0)) {
				t.Fatalf("read f0: %d B, %v", len(got), err)
			}
			if _, after := ps.snapshot(); len(after) != len(before)+1 || after[len(before)] != tc.batch {
				t.Errorf("read of f0 issued BatchGets of %v keys, want one of %d (%s left out)", after[len(before):], tc.batch, tc.skipped)
			}
			// Every entry still reads as without read-ahead.
			cold := w.mountFresh(tc.user, 0)
			defer cold.Close()
			for _, name := range names {
				p := "/proj/" + name
				got, gerr := s.ReadFile(p)
				want, werr := cold.ReadFile(p)
				if errClass(gerr) != errClass(werr) || !bytes.Equal(got, want) {
					t.Errorf("read %s after ls = %d B, %v; without ls %d B, %v", p, len(got), gerr, len(want), werr)
				}
			}
		})
	}
}

// TestReadAheadCacheBudget: with caching off a read fetches only its own
// blocks, and with a finite budget read-ahead never takes the cache past
// it, nor a batch past half of it.
func TestReadAheadCacheBudget(t *testing.T) {
	const n = 16
	// Files of 8 to 16 blocks: the content after f0 is more than half the
	// finite budget, while the listing's metadata fits in it.
	data := func(i int) []byte { return bytes.Repeat(content(i), 4) }
	for _, budget := range []int64{0, 16000} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			w, ps := probeWorld(t)
			alice := w.as("alice")
			if err := alice.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := alice.WriteFile(fmt.Sprintf("/d/f%02d", i), data(i), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			reg := obs.NewRegistry()
			s, err := Mount(Config{Store: ps, User: fixUser["alice"], Registry: fixReg, Layout: w.eng,
				FSID: "testfs", CacheBytes: budget, BlockSize: 64, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			names := listAndStat(t, s, "/d")
			aheadMax := 0
			for i, name := range names {
				_, before := ps.snapshot()
				got, err := s.ReadFile("/d/" + name)
				_, after := ps.snapshot()
				if err != nil || !bytes.Equal(got, data(i)) {
					t.Fatalf("read %s = %d B, %v", name, len(got), err)
				}
				if used := s.cache.Used(); budget > 0 && used > budget {
					t.Fatalf("after reading %s the cache holds %d B, budget %d", name, used, budget)
				}
				own := len(data(i)) / 64
				for _, keys := range after[len(before):] {
					aheadMax = max(aheadMax, (keys-own)*64)
				}
			}
			switch {
			case budget == 0 && aheadMax > 0:
				t.Errorf("caching off, yet a read fetched %d B ahead", aheadMax)
			case budget == 0 && reg.Counter("client.readahead.batches").Value() != 0:
				t.Error("caching off, yet read-ahead ran")
			case budget > 0 && int64(aheadMax) > budget/2:
				t.Errorf("a read fetched %d B ahead, more than half the %d B budget", aheadMax, budget)
			case budget > 0 && aheadMax == 0:
				t.Error("no read fetched ahead; the test does not exercise the window")
			}
		})
	}
}

// TestReadAheadFileLargerThanCache: a listed file whose content is larger
// than a finite cache reads in one BatchGet. Read-ahead hands the read the
// file's own verified blocks, so those the cache evicts while the rest
// arrive are not fetched a second time.
func TestReadAheadFileLargerThanCache(t *testing.T) {
	const budget = 4096
	big := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB: 128 blocks of 64 B
	w, ps := probeWorld(t)
	alice := w.as("alice")
	populateData(t, alice, "/d", 2, 0o644)
	if err := alice.WriteFile("/d/big", big, 0o644); err != nil {
		t.Fatal(err)
	}
	s := w.mountFresh("alice", budget)
	defer s.Close()
	listAndStat(t, s, "/d")
	_, before := ps.snapshot()
	got, err := s.ReadFile("/d/big")
	_, after := ps.snapshot()
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("read /d/big = %d B, %v", len(got), err)
	}
	if n := len(after) - len(before); n != 1 {
		t.Errorf("read of a %d B file with a %d B cache issued %d BatchGets (%v keys), want 1",
			len(big), budget, n, after[len(before):])
	}
}

// TestReadAheadCoherence: alice writes, appends, revokes, grants,
// creates and removes in a directory bob reads; after Refresh and a new
// listing, every read bob makes agrees with a fresh mount. alice's own
// reads after her writes, through the same listing, agree too.
func TestReadAheadCoherence(t *testing.T) {
	w, _ := probeWorld(t)
	alice := w.as("alice")
	populateData(t, alice, "/d", 6, 0o644, 0o640)
	bob := w.as("bob")

	compare := func(s *Session, user types.UserID, when string) {
		t.Helper()
		names := listAndStat(t, s, "/d")
		fresh := w.mountFresh(user, 0)
		defer fresh.Close()
		for _, name := range names {
			p := "/d/" + name
			got, gerr := s.ReadFile(p)
			want, werr := fresh.ReadFile(p)
			if errClass(gerr) != errClass(werr) || !bytes.Equal(got, want) {
				t.Errorf("%s: %s reads %s = %d B, %v; a fresh mount reads %d B, %v", when, user, p, len(got), gerr, len(want), werr)
			}
		}
	}
	compare(bob, "bob", "before")
	steps := []struct {
		name string
		run  func() error
	}{
		{"rewrite", func() error { return alice.WriteFile("/d/f0", []byte("rewritten, now shorter"), 0o644) }},
		{"append", func() error { return alice.Append("/d/f1", bytes.Repeat([]byte("+"), 130)) }},
		{"revoke", func() error { return alice.Chmod("/d/f2", 0o600) }},
		{"grant", func() error { return alice.Chmod("/d/f2", 0o640) }},
		{"create", func() error { return alice.WriteFile("/d/f9", content(9), 0o644) }},
		{"remove", func() error { return alice.Remove("/d/f4") }},
	}
	for _, step := range steps {
		compare(alice, "alice", "before "+step.name)
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		compare(alice, "alice", "after "+step.name)
		bob.Refresh()
		compare(bob, "bob", "after "+step.name)
	}
}

// TestReadAheadCost pins the store calls of ls, stat and cat over D
// directories of F files after Refresh. The count is the same for every
// F whose content fits the window: one read-ahead batch per listed
// directory, not one round trip per read.
func TestReadAheadCost(t *testing.T) {
	const dirs = 3
	var pinned int
	for _, files := range []int{2, 5, 9} {
		w, ps := probeWorld(t)
		reg := obs.NewRegistry()
		s, err := Mount(Config{Store: ps, User: fixUser["alice"], Registry: fixReg, Layout: w.eng,
			FSID: "testfs", CacheBytes: -1, BlockSize: 64, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Mkdir("/b", 0o755); err != nil {
			t.Fatal(err)
		}
		wantBlocks := 0
		for d := 0; d < dirs; d++ {
			populateData(t, s, fmt.Sprintf("/b/d%d", d), files, 0o644)
			for f := 0; f < files; f++ {
				wantBlocks += (len(content(f)) + 63) / 64
			}
		}

		s.Refresh()
		before, _ := ps.snapshot()
		if _, err := s.Stat("/b"); err != nil {
			t.Fatal(err)
		}
		top, err := s.ReadDir("/b")
		if err != nil {
			t.Fatal(err)
		}
		for _, dn := range top {
			if _, err := s.Stat("/b/" + dn); err != nil {
				t.Fatal(err)
			}
			dir := "/b/" + dn
			entries, err := s.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range entries {
				if _, err := s.Stat(dir + "/" + fn); err != nil {
					t.Fatal(err)
				}
				if _, err := s.ReadFile(dir + "/" + fn); err != nil {
					t.Fatal(err)
				}
			}
		}
		after, _ := ps.snapshot()
		// Stat /b: root metadata, root view, then /b's metadata+manifest
		// batch (3). ls /b: its view (1). Stat of the first directory:
		// one batch for all of them (1). Per directory: its view, one
		// stat-ahead batch and one read-ahead batch (3 each).
		if want := 3 + 1 + 1 + 3*dirs; after-before != want {
			t.Errorf("F=%d: ls, stat and cat made %d store calls, want %d", files, after-before, want)
		}
		if pinned == 0 {
			pinned = after - before
		} else if after-before != pinned {
			t.Errorf("F=%d: %d store calls, but %d for fewer files", files, after-before, pinned)
		}
		batches := reg.Counter("client.readahead.batches").Value()
		blocks := reg.Counter("client.readahead.blocks").Value()
		if batches != dirs || blocks != int64(wantBlocks) {
			t.Errorf("F=%d: readahead batches %d blocks %d, want %d and %d", files, batches, blocks, dirs, wantBlocks)
		}
	}
}
